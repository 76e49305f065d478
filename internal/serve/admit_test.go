package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"haxconn/internal/soc"
)

// newAdmitRuntime builds a runtime with injected standalone service
// estimates so admission boundaries are exact, not profile-dependent.
func newAdmitRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	cfg.Platform = soc.Orin()
	cfg.Policy = NaiveGPUOnly // admission never needs the solver
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setStandalone(r, "VGG19", 10)
	setStandalone(r, "ResNet152", 20)
	return r
}

// TestAdmitRejectionPaths drives serve.Runtime.admit through every
// rejection path and its boundary values.
func TestAdmitRejectionPaths(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// runtime state at the admission decision
		pending []Request
		queued  map[string]int
		req     Request
		nowMs   float64
		want    string // expected rejection reason ("" = admitted)
	}{
		{
			name: "empty tenant",
			req:  Request{Network: "VGG19"},
			want: RejectInvalidTenant,
		},
		{
			name: "reserved tenant",
			req:  Request{Tenant: totalName, Network: "VGG19"},
			want: RejectInvalidTenant,
		},
		{
			name: "unknown network",
			req:  Request{Tenant: "a", Network: "NoSuchNet"},
			want: RejectUnknownNetwork,
		},
		{
			name: "unknown network outranks queue cap",
			cfg:  Config{MaxQueue: 1},
			queued: map[string]int{
				"a": 1,
			},
			req:  Request{Tenant: "a", Network: "NoSuchNet"},
			want: RejectUnknownNetwork,
		},
		{
			name:   "queue below cap admits",
			cfg:    Config{MaxQueue: 2},
			queued: map[string]int{"a": 1},
			req:    Request{Tenant: "a", Network: "VGG19"},
			want:   "",
		},
		{
			name:   "queue at cap rejects",
			cfg:    Config{MaxQueue: 2},
			queued: map[string]int{"a": 2},
			req:    Request{Tenant: "a", Network: "VGG19"},
			want:   RejectQueueFull,
		},
		{
			name:   "queue cap is per tenant",
			cfg:    Config{MaxQueue: 2},
			queued: map[string]int{"other": 5},
			req:    Request{Tenant: "a", Network: "VGG19"},
			want:   "",
		},
		{
			name:   "zero cap means unlimited",
			queued: map[string]int{"a": 1000},
			req:    Request{Tenant: "a", Network: "VGG19"},
			want:   "",
		},
		{
			// est = waiting 0 + backlog 0 + service 10 = 10 = 1.0 x SLO 10:
			// the boundary itself is admitted (strictly-greater sheds).
			name: "slo boundary admits",
			cfg:  Config{AdmitSLOFactor: 1, MaxBatch: 1},
			req:  Request{Tenant: "a", Network: "VGG19", SLOMs: 10},
			want: "",
		},
		{
			// est 10 > 1.0 x SLO 9.99: shed at arrival.
			name: "slo just past boundary rejects",
			cfg:  Config{AdmitSLOFactor: 1, MaxBatch: 1},
			req:  Request{Tenant: "a", Network: "VGG19", SLOMs: 9.99},
			want: RejectSLO,
		},
		{
			// backlog (10+20)/MaxBatch(1) + service 10 = 40 > 2 x SLO 12.
			name: "slo sheds on queued backlog",
			cfg:  Config{AdmitSLOFactor: 2, MaxBatch: 1},
			pending: []Request{
				{Tenant: "a", Network: "VGG19"},
				{Tenant: "a", Network: "ResNet152"},
			},
			req:  Request{Tenant: "a", Network: "VGG19", SLOMs: 12},
			want: RejectSLO,
		},
		{
			// The same backlog divided across MaxBatch=2 dispatch slots:
			// est = 30/2 + 10 = 25 <= 2 x SLO 12.5.
			name: "wider dispatch halves the backlog estimate",
			cfg:  Config{AdmitSLOFactor: 2, MaxBatch: 2},
			pending: []Request{
				{Tenant: "a", Network: "VGG19"},
				{Tenant: "a", Network: "ResNet152"},
			},
			req:  Request{Tenant: "a", Network: "VGG19", SLOMs: 12.5},
			want: "",
		},
		{
			// Waiting time already incurred counts: now 35, arrival 0,
			// est = 35 + 10 = 45 > 4 x SLO 11.
			name:  "slo counts waiting time",
			cfg:   Config{AdmitSLOFactor: 4, MaxBatch: 1},
			req:   Request{Tenant: "a", Network: "VGG19", SLOMs: 11},
			nowMs: 35,
			want:  RejectSLO,
		},
		{
			name: "zero slo disables shedding",
			cfg:  Config{AdmitSLOFactor: 1, MaxBatch: 1},
			req:  Request{Tenant: "a", Network: "VGG19", SLOMs: 0},
			want: "",
		},
		{
			name: "zero factor disables shedding",
			cfg:  Config{MaxBatch: 1},
			req:  Request{Tenant: "a", Network: "VGG19", SLOMs: 0.001},
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newAdmitRuntime(t, tc.cfg)
			setPending(r, tc.pending)
			if tc.queued != nil {
				r.queued = tc.queued
			}
			got, _, err := r.admit(tc.req, tc.nowMs)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("admit = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestServeSurvivesMalformedRequests checks that a malformed request in a
// trace is rejected with a reason instead of erroring out the serving
// loop.
func TestServeSurvivesMalformedRequests(t *testing.T) {
	tr := Trace{
		{ID: 0, Tenant: "good", Network: "VGG19", ArrivalMs: 0, SLOMs: 100},
		{ID: 1, Tenant: "bad", Network: "NoSuchNet", ArrivalMs: 1},
		{ID: 2, Tenant: "", Network: "VGG19", ArrivalMs: 2},
		{ID: 3, Tenant: "good", Network: "VGG19", ArrivalMs: 3, SLOMs: 100},
	}
	rt, err := New(Config{Platform: soc.Orin(), Policy: NaiveGPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatalf("a malformed request killed the serving loop: %v", err)
	}
	if sum.Total.Offered != 4 || sum.Total.Completed != 2 || sum.Total.Rejected != 2 {
		t.Errorf("offered/completed/rejected = %d/%d/%d, want 4/2/2",
			sum.Total.Offered, sum.Total.Completed, sum.Total.Rejected)
	}
	reasons := map[string]string{}
	for _, c := range rt.Completions() {
		if c.Rejected {
			reasons[c.Tenant+"/"+c.Network] = c.RejectReason
		}
	}
	if reasons["bad/NoSuchNet"] != RejectUnknownNetwork {
		t.Errorf("unknown network rejected with %q", reasons["bad/NoSuchNet"])
	}
	if reasons["/VGG19"] != RejectInvalidTenant {
		t.Errorf("empty tenant rejected with %q", reasons["/VGG19"])
	}
	for key, reason := range reasons {
		if strings.HasPrefix(key, "good/") {
			t.Errorf("well-formed request rejected with %q", reason)
		}
	}
}

// TestServeRejectsNonFiniteTimes: a request whose arrival time or SLO is
// NaN or infinite is rejected before serving starts, with an error naming
// the request and the field. Unchecked, a NaN or +Inf arrival made Serve
// spin forever: NaN <= x is false, and with nothing pending NextStartMs
// is +Inf.
func TestServeRejectsNonFiniteTimes(t *testing.T) {
	for _, tc := range []struct {
		name, field  string
		arrival, slo float64
	}{
		{"NaN arrival", "ArrivalMs", math.NaN(), 10},
		{"+Inf arrival", "ArrivalMs", math.Inf(1), 10},
		{"NaN SLO", "SLOMs", 1, math.NaN()},
		{"+Inf SLO", "SLOMs", 1, math.Inf(1)},
	} {
		tr := Trace{
			{ID: 0, Tenant: "alice", Network: "VGG19", ArrivalMs: 0, SLOMs: 10},
			{ID: 1, Tenant: "alice", Network: "VGG19", ArrivalMs: tc.arrival, SLOMs: tc.slo},
		}
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), "request 1") || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate = %v, want an error naming request 1 and %s", tc.name, err, tc.field)
		}
		rt, err := New(Config{Platform: soc.Orin()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Serve(tr); err == nil {
			t.Errorf("%s: Runtime.Serve accepted the trace", tc.name)
		}
	}
	if err := (Trace{{ID: 0, Tenant: "alice", Network: "VGG19", ArrivalMs: 3}}).Validate(); err != nil {
		t.Errorf("finite trace rejected: %v", err)
	}
}

// FuzzServeTrace: hostile traces through Runtime.Serve on a naive Orin
// runtime, so that no input triggers a solve. The fuzz bytes decode to a
// mode byte and up to 24 requests of 18 bytes each: arbitrary float64 bits
// for the arrival and the SLO, an ID that repeats, a tenant that may be ""
// or "TOTAL" and a network that may be outside the zoo. The mode picks the
// mix policy and switches on MaxQueue, AdmitSLOFactor and AdaptiveMaxWait.
// Serve errs only on an empty trace or one Trace.Validate rejects.
// Otherwise every request ends exactly once: the completions are the
// trace's requests, as many as Total.Offered, the served and the rejected
// add up to them, and every served request runs arrival <= start <= end.
func FuzzServeTrace(f *testing.F) {
	record := func(arrival, slo float64, id, sel byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(arrival))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(slo))
		return append(b, id, sel)
	}
	seed := func(mode byte, recs ...[]byte) []byte {
		return slices.Concat(append([][]byte{{mode}}, recs...)...)
	}
	f.Add([]byte{})
	f.Add(seed(0, record(0, 10, 0, 0), record(1, 10, 1, 5), record(1, 0, 1, 10)))
	f.Add(seed(0x73, record(3, 5, 0, 0), record(0, 5, 0, 1), record(2, -4, 2, 14), record(2, 1e-300, 3, 6)))
	f.Add(seed(0x12, record(math.NaN(), 10, 0, 0)))
	f.Add(seed(0x11, record(0, 10, 0, 0), record(0, 10, 0, 4), record(0, 10, 1, 8), record(0, 10, 1, 0)))
	f.Add(seed(0x61, record(-1e300, 10, 0, 0), record(1e300, 10, 1, 1), record(0, math.MaxFloat64, 2, 4)))
	tenants := []string{"a", "b", "", totalName}
	networks := []string{"SqueezeNet", "ResNet18", "AlexNet", "NoSuchNet"}
	policies := MixPolicies()
	f.Fuzz(func(t *testing.T, data []byte) {
		var mode byte
		if len(data) > 0 {
			mode, data = data[0], data[1:]
		}
		var tr Trace
		for len(data) >= 18 && len(tr) < 24 {
			tr = append(tr, Request{
				ID:        int(data[16] % 8),
				Tenant:    tenants[data[17]%4],
				Network:   networks[data[17]/4%4],
				ArrivalMs: math.Float64frombits(binary.LittleEndian.Uint64(data)),
				SLOMs:     math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
			})
			data = data[18:]
		}
		cfg := Config{Platform: soc.Orin(), Policy: NaiveGPUOnly, MixPolicy: policies[int(mode)%len(policies)]}
		if mode&0x10 != 0 {
			cfg.MaxQueue = 2
		}
		if mode&0x20 != 0 {
			cfg.AdmitSLOFactor = 1
		}
		if mode&0x40 != 0 {
			cfg.AdaptiveMaxWait = true
		}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Serve(tr)
		if invalid := len(tr) == 0 || tr.Validate() != nil; invalid || err != nil {
			if invalid != (err != nil) {
				t.Fatalf("Serve error %v on a trace whose validity is %v", err, !invalid)
			}
			return
		}
		cs := rt.Completions()
		if len(cs) != len(tr) || sum.Total.Offered != len(tr) {
			t.Fatalf("%d requests, %d completions, %d offered", len(tr), len(cs), sum.Total.Offered)
		}
		if sum.Total.Completed+sum.Total.Rejected != len(tr) {
			t.Fatalf("%d served + %d rejected of %d requests", sum.Total.Completed, sum.Total.Rejected, len(tr))
		}
		key := func(q Request) string {
			return fmt.Sprintf("%d/%q/%s/%x/%x", q.ID, q.Tenant, q.Network, math.Float64bits(q.ArrivalMs), math.Float64bits(q.SLOMs))
		}
		var want, got []string
		served := 0
		for i, c := range cs {
			want, got = append(want, key(tr[i])), append(got, key(c.Request))
			if c.Rejected {
				continue
			}
			served++
			if !(c.ArrivalMs <= c.StartMs && c.StartMs <= c.EndMs) {
				t.Fatalf("request %d served out of order: arrival %g, start %g, end %g", c.ID, c.ArrivalMs, c.StartMs, c.EndMs)
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(want, got) {
			t.Fatalf("completions %v are not the trace's requests %v", got, want)
		}
		if served != sum.Total.Completed {
			t.Fatalf("%d served completions, summary counts %d", served, sum.Total.Completed)
		}
	})
}
