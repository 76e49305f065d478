package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"haxconn/internal/soc"
)

func cand(id int, network string, arrival, slo, demand float64) Candidate {
	return Candidate{
		Request:    Request{ID: id, Network: network, Tenant: "t", ArrivalMs: arrival, SLOMs: slo},
		DemandGBps: demand,
	}
}

func TestMixFormerRegistry(t *testing.T) {
	for _, name := range MixPolicies() {
		m, err := NewMixFormer(name)
		if err != nil {
			t.Fatalf("NewMixFormer(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("NewMixFormer(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := NewMixFormer(""); err != nil || m.Name() != MixFIFO {
		t.Errorf("empty name should default to fifo, got %v, %v", m, err)
	}
	if _, err := NewMixFormer("lifo"); err == nil {
		t.Error("unknown policy name accepted")
	}
	if MixPolicyName("") != MixFIFO || MixPolicyName("slo-aware") != "slo-aware" {
		t.Error("MixPolicyName canonicalization broken")
	}
}

// TestMixFormerEdgeCases: every policy must handle an empty eligible set,
// a single candidate, and MaxBatch at 0, 1 and len(eligible) without
// panicking, duplicating or overflowing — and the selection must be a
// valid index set.
func TestMixFormerEdgeCases(t *testing.T) {
	eligible := []Candidate{
		cand(0, "SqueezeNet", 0, 7, 91),
		cand(1, "Inception", 1, 7, 82),
		cand(2, "ResNet152", 2, 7, 76),
		cand(3, "ResNet18", 3, 7, 71),
	}
	for _, name := range MixPolicies() {
		m, err := NewMixFormer(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			in    FormInput
			want  int // expected selection size
		}{
			{"empty queue", FormInput{MaxBatch: 2}, 0},
			{"single candidate", FormInput{MaxBatch: 2, Eligible: eligible[:1]}, 1},
			{"MaxBatch 0", FormInput{MaxBatch: 0, Eligible: eligible}, 0},
			{"MaxBatch 1", FormInput{MaxBatch: 1, Eligible: eligible}, 1},
			{"MaxBatch len(pending)", FormInput{MaxBatch: 4, Eligible: eligible}, 4},
			{"MaxBatch beyond queue", FormInput{MaxBatch: 9, Eligible: eligible}, 4},
		} {
			sel := m.Form(tc.in)
			if len(sel) != tc.want {
				t.Errorf("%s/%s: %d selected, want %d", name, tc.label, len(sel), tc.want)
			}
			seen := map[int]bool{}
			for _, i := range sel {
				if i < 0 || i >= len(tc.in.Eligible) || seen[i] {
					t.Errorf("%s/%s: invalid selection %v", name, tc.label, sel)
					break
				}
				seen[i] = true
			}
		}
	}
}

// TestMixFormerSingleNetworkQueue: with every candidate identical, all
// policies must degrade to FIFO order — ties always break toward the
// older request.
func TestMixFormerSingleNetworkQueue(t *testing.T) {
	eligible := make([]Candidate, 5)
	for i := range eligible {
		eligible[i] = cand(i, "VGG19", float64(i), 10, 104)
	}
	for _, name := range MixPolicies() {
		m, _ := NewMixFormer(name)
		sel := m.Form(FormInput{StartMs: 10, MaxBatch: 3, Eligible: eligible})
		if !reflect.DeepEqual(sel, []int{0, 1, 2}) {
			t.Errorf("%s on a uniform queue selected %v, want [0 1 2]", name, sel)
		}
	}
}

func TestDemandBalancePairing(t *testing.T) {
	eligible := []Candidate{
		cand(0, "SqueezeNet", 0, 7, 91),
		cand(1, "Inception", 1, 7, 82),
		cand(2, "ResNet152", 2, 7, 76),
		cand(3, "ResNet18", 3, 7, 71),
	}
	m := DemandBalance()
	// Heaviest pairs with lightest: SqueezeNet (0) + ResNet18 (3).
	if sel := m.Form(FormInput{MaxBatch: 2, Eligible: eligible}); !reflect.DeepEqual(sel, []int{0, 3}) {
		t.Errorf("batch 2 selected %v, want [0 3]", sel)
	}
	// Width 3 continues alternating: heaviest, lightest, next-heaviest.
	if sel := m.Form(FormInput{MaxBatch: 3, Eligible: eligible}); !reflect.DeepEqual(sel, []int{0, 3, 1}) {
		t.Errorf("batch 3 selected %v, want [0 3 1]", sel)
	}
	// Equal demand offers nothing to balance: selection stays FIFO.
	tied := []Candidate{cand(0, "A", 0, 0, 80), cand(1, "B", 1, 0, 80), cand(2, "C", 2, 0, 80)}
	if sel := m.Form(FormInput{MaxBatch: 2, Eligible: tied}); !reflect.DeepEqual(sel, []int{0, 1}) {
		t.Errorf("tied demand selected %v, want [0 1]", sel)
	}
}

func TestSLOAwareUrgency(t *testing.T) {
	eligible := []Candidate{
		cand(0, "A", 0, 0, 0),  // no SLO: infinite slack, dispatches last
		cand(1, "B", 2, 20, 0), // slack at t=10: 12
		cand(2, "C", 4, 10, 0), // slack at t=10: 4 — most urgent
		cand(3, "D", 6, 12, 0), // slack at t=10: 8
	}
	m := SLOAware()
	if sel := m.Form(FormInput{StartMs: 10, MaxBatch: 3, Eligible: eligible}); !reflect.DeepEqual(sel, []int{2, 3, 1}) {
		t.Errorf("urgency order %v, want [2 3 1]", sel)
	}
	if s := eligible[0].SlackMs(10); !math.IsInf(s, 1) {
		t.Errorf("no-SLO slack = %v, want +Inf", s)
	}
}

// adversarialFormer always picks the newest eligible requests — the
// worst-case starver the runtime's max-wait bound must defeat.
type adversarialFormer struct{}

func (adversarialFormer) Name() string      { return "newest-first" }
func (adversarialFormer) DemandAware() bool { return false }
func (adversarialFormer) Form(in FormInput) []int {
	n := in.MaxBatch
	if n > len(in.Eligible) {
		n = len(in.Eligible)
	}
	sel := make([]int, 0, n)
	for i := len(in.Eligible) - 1; i >= 0 && len(sel) < n; i-- {
		sel = append(sel, i)
	}
	return sel
}

// TestMaxWaitBoundsStarvation is the starvation regression test: under a
// policy that never volunteers the oldest request, the runtime must force
// it into a round once it has been passed over MaxWaitRounds times.
func TestMaxWaitBoundsStarvation(t *testing.T) {
	const maxWait = 3
	var tr Trace
	// Request 0 is the victim; 9 more arrive at the same instant so the
	// adversary always has a newer choice.
	for i := 0; i < 10; i++ {
		tr = append(tr, Request{ID: i, Tenant: "t", Network: "SqueezeNet", ArrivalMs: 0})
	}
	rt, err := New(Config{
		Platform:      soc.Orin(),
		Policy:        NaiveGPUOnly,
		MaxBatch:      1,
		MaxWaitRounds: maxWait,
		Mix:           adversarialFormer{},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total.Completed != len(tr) {
		t.Fatalf("completed %d of %d", sum.Total.Completed, len(tr))
	}
	// Completions are recorded in dispatch order: the victim waits maxWait
	// rounds (the adversary serves the newest each time) and is forced
	// into round maxWait+1 — any later and the bound is broken.
	for pos, c := range rt.Completions() {
		if c.ID == 0 {
			if pos != maxWait {
				t.Errorf("oldest request dispatched in round %d, want forced at round %d", pos+1, maxWait+1)
			}
			return
		}
	}
	t.Fatal("oldest request never dispatched")
}

// TestSLOAwareDoesNotStarveSlackless: a request without an SLO (infinite
// slack — slo-aware would defer it forever) must still complete within
// the default max-wait bound while urgent traffic keeps arriving.
func TestSLOAwareDoesNotStarveSlackless(t *testing.T) {
	var tr Trace
	tr = append(tr, Request{ID: 0, Tenant: "bg", Network: "SqueezeNet", ArrivalMs: 0})
	for i := 1; i <= 12; i++ {
		tr = append(tr, Request{ID: i, Tenant: "rt", Network: "SqueezeNet", ArrivalMs: 0, SLOMs: 5})
	}
	rt, err := New(Config{Platform: soc.Orin(), Policy: NaiveGPUOnly, MaxBatch: 1, MixPolicy: MixSLOAware})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Serve(tr); err != nil {
		t.Fatal(err)
	}
	for pos, c := range rt.Completions() {
		if c.ID == 0 {
			if pos > DefaultMaxWaitRounds {
				t.Errorf("slack-less request dispatched in round %d, want <= %d", pos+1, DefaultMaxWaitRounds+1)
			}
			return
		}
	}
	t.Fatal("slack-less request never dispatched")
}

func TestComposeBatchValidation(t *testing.T) {
	// One scratch serves every call, as a Runtime's serves every round:
	// marks and picks left by one call must not leak into the next.
	var s composeScratch
	eligible := []Candidate{cand(0, "A", 0, 0, 0), cand(1, "B", 0, 0, 0)}
	if _, err := composeBatch([]int{2}, eligible, 2, 4, &s); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := composeBatch([]int{0, 0}, eligible, 2, 4, &s); err == nil {
		t.Error("duplicate index accepted")
	}
	// A short selection is topped up in queue order, never shrunk.
	picks, err := composeBatch(nil, eligible, 2, 4, &s)
	if err != nil || !reflect.DeepEqual(picks, []int{0, 1}) {
		t.Errorf("empty selection topped up to %v (%v), want [0 1]", picks, err)
	}
	// MaxBatch 0 dispatches nothing.
	if picks, _ := composeBatch(nil, eligible, 0, 4, &s); len(picks) != 0 {
		t.Errorf("MaxBatch 0 picked %v", picks)
	}
	// A starved head claims the first slot and the ranking fills the rest.
	wide := []Candidate{cand(0, "A", 0, 0, 0), cand(1, "B", 0, 0, 0), cand(2, "C", 0, 0, 0), cand(3, "D", 0, 0, 0)}
	wide[0].WaitedRounds = 4
	if picks, err := composeBatch([]int{3, 2}, wide, 2, 4, &s); err != nil || !reflect.DeepEqual(picks, []int{0, 3}) {
		t.Errorf("starved head with ranking [3 2] picked %v (%v), want [0 3]", picks, err)
	}
	// A narrower round after it sees none of the wider round's marks.
	if picks, err := composeBatch([]int{1}, eligible, 2, 4, &s); err != nil || !reflect.DeepEqual(picks, []int{0, 1}) {
		t.Errorf("selection [1] after a wider round picked %v (%v), want [0 1]", picks, err)
	}
	// On warm scratch, composing a round allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := composeBatch([]int{3, 2}, wide, 3, 4, &s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("composeBatch on warm scratch: %.1f allocations per call, want 0", allocs)
	}
}

// TestDemandBalanceBeatsFIFO is the tentpole's acceptance demo: on the
// canonical mixed-memory-demand trace, demand-balanced mix forming must
// beat FIFO-prefix batching on p99 latency (and not lose throughput) —
// the cmd/serve -mode compare experiment as a regression test.
func TestDemandBalanceBeatsFIFO(t *testing.T) {
	tr, err := Generate(MixedDemandTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Compare(tr, Legs(Config{Platform: soc.Orin(), SolverTimeScale: 50})...)
	if err != nil {
		t.Fatal(err)
	}
	// Legs: naive, contention-aware (fifo), demand-balance, contention-aware mix.
	if got := []string{rows[1].MixPolicy, rows[2].MixPolicy}; got[0] != MixFIFO || got[1] != MixDemandBalance {
		t.Fatalf("default comparison mix policies = %v", got)
	}
	fifo, db := rows[1].Total, rows[2].Total
	if db.P99Ms >= fifo.P99Ms {
		t.Errorf("demand-balance p99 %.2f ms not better than fifo %.2f ms", db.P99Ms, fifo.P99Ms)
	}
	if db.ThroughputRPS < fifo.ThroughputRPS {
		t.Errorf("demand-balance throughput %.1f rps lost to fifo %.1f rps", db.ThroughputRPS, fifo.ThroughputRPS)
	}
	if db.Violations >= fifo.Violations {
		t.Errorf("demand-balance violations %d not fewer than fifo %d", db.Violations, fifo.Violations)
	}
	if db.Completed != fifo.Completed {
		t.Errorf("policies served different request counts: %d vs %d", db.Completed, fifo.Completed)
	}
	t.Logf("fifo p99=%.2f viol=%d rps=%.1f | demand-balance p99=%.2f viol=%d rps=%.1f (p99 %+.1f%%)",
		fifo.P99Ms, fifo.Violations, fifo.ThroughputRPS,
		db.P99Ms, db.Violations, db.ThroughputRPS, 100*(1-db.P99Ms/fifo.P99Ms))
}

// TestContentionAwareBeatsDemandBalance is the tentpole's acceptance
// check: on the canonical mixed-demand quartet, contention-predicted mix
// forming must beat the scalar demand-balance heuristic on SLO violations
// or p99 — the analytic model sees through the cold-start rounds the
// heuristic pairs blindly — while staying no worse on the other metric,
// throughput and completion count. This is the cmd/serve -mode compare
// contention-aware leg as a regression test.
func TestContentionAwareBeatsDemandBalance(t *testing.T) {
	tr, err := Generate(MixedDemandTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Compare(tr, Legs(Config{Platform: soc.Orin(), SolverTimeScale: 50})...)
	if err != nil {
		t.Fatal(err)
	}
	// Each configuration once: the default fifo mix rides the
	// contention-aware leg rather than a leg of its own.
	var legs, mixes []string
	for _, r := range rows {
		legs, mixes = append(legs, r.Leg), append(mixes, r.MixPolicy)
	}
	if want := []string{"naive-gpu-only", "contention-aware", "mix-demand-balance", "mix-contention-aware"}; !reflect.DeepEqual(legs, want) {
		t.Fatalf("default comparison legs = %v, want %v", legs, want)
	}
	if want := []string{MixFIFO, MixFIFO, MixDemandBalance, MixContentionAware}; !reflect.DeepEqual(mixes, want) {
		t.Fatalf("default comparison mix policies = %v, want %v", mixes, want)
	}
	db, ca := rows[2].Total, rows[3].Total
	if ca.P99Ms > db.P99Ms {
		t.Errorf("contention-aware p99 %.3f ms worse than demand-balance %.3f ms", ca.P99Ms, db.P99Ms)
	}
	if ca.Violations > db.Violations {
		t.Errorf("contention-aware violations %d worse than demand-balance %d", ca.Violations, db.Violations)
	}
	if ca.P99Ms >= db.P99Ms && ca.Violations >= db.Violations {
		t.Errorf("contention-aware (p99 %.3f, viol %d) strictly beats demand-balance (p99 %.3f, viol %d) on neither metric",
			ca.P99Ms, ca.Violations, db.P99Ms, db.Violations)
	}
	if ca.ThroughputRPS < db.ThroughputRPS {
		t.Errorf("contention-aware throughput %.1f rps lost to demand-balance %.1f rps", ca.ThroughputRPS, db.ThroughputRPS)
	}
	if ca.Completed != db.Completed {
		t.Errorf("policies served different request counts: %d vs %d", ca.Completed, db.Completed)
	}
	t.Logf("demand-balance p99=%.3f viol=%d | contention-aware p99=%.3f viol=%d",
		db.P99Ms, db.Violations, ca.P99Ms, ca.Violations)
}

// TestContentionAwareColdFallback: without a scorer (FormInput.Score nil
// — the runtime only wires one for score-aware policies) and when every
// scoring attempt fails, the policy must degrade to the demand-balance
// selection instead of stalling or panicking. This pins the graceful
// cold-path contract.
func TestContentionAwareColdFallback(t *testing.T) {
	eligible := []Candidate{
		cand(0, "SqueezeNet", 0, 7, 91),
		cand(1, "Inception", 1, 7, 82),
		cand(2, "ResNet152", 2, 7, 76),
		cand(3, "ResNet18", 3, 7, 71),
	}
	m := ContentionAwareMix(0)
	wantDB := DemandBalance().Form(FormInput{MaxBatch: 2, Eligible: eligible})
	if sel := m.Form(FormInput{MaxBatch: 2, Eligible: eligible}); !reflect.DeepEqual(sel, wantDB) {
		t.Errorf("nil scorer: selected %v, want demand-balance %v", sel, wantDB)
	}
	failing := func([]int) (BatchScore, bool) { return BatchScore{}, false }
	if sel := m.Form(FormInput{MaxBatch: 2, Eligible: eligible, Score: failing}); !reflect.DeepEqual(sel, wantDB) {
		t.Errorf("failing scorer: selected %v, want demand-balance %v", sel, wantDB)
	}
	if sel := m.Form(FormInput{MaxBatch: 2, Score: failing}); len(sel) != 0 {
		t.Errorf("empty queue selected %v", sel)
	}
}

// TestContentionAwareMaxWait: the runtime's starvation bound must hold
// around contention-aware forming. A slow network parked at the queue
// head keeps losing the predicted-makespan comparison to a stream of fast
// ones; the max-wait bound must force it in anyway.
func TestContentionAwareMaxWait(t *testing.T) {
	const maxWait = 3
	var tr Trace
	tr = append(tr, Request{ID: 0, Tenant: "slow", Network: "ResNet152", ArrivalMs: 0})
	for i := 1; i <= 10; i++ {
		tr = append(tr, Request{ID: i, Tenant: "fast", Network: "SqueezeNet", ArrivalMs: 0})
	}
	rt, err := New(Config{
		Platform:      soc.Orin(),
		Policy:        NaiveGPUOnly,
		MaxBatch:      1,
		MaxWaitRounds: maxWait,
		MixPolicy:     MixContentionAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total.Completed != len(tr) {
		t.Fatalf("completed %d of %d", sum.Total.Completed, len(tr))
	}
	for pos, c := range rt.Completions() {
		if c.ID == 0 {
			if pos > maxWait {
				t.Errorf("slow request dispatched in round %d, want forced by round %d", pos+1, maxWait+1)
			}
			return
		}
	}
	t.Fatal("slow request never dispatched")
}

// TestPrepareFailureNegativeCache is the hot-path regression test for the
// estimator memoization: a network whose core.Prepare fails must be
// negative-cached — re-probing it through DemandGBps, StandaloneMs or
// PendingDemandSpread must never repeat the failing characterization.
// Before the fix, every call re-prepared and the dispatch loop paid the
// failure once per round. A name outside the zoo is never characterized
// at all: it fails at its index lookup, costing no prepare and no probe.
func TestPrepareFailureNegativeCache(t *testing.T) {
	rt, err := New(Config{Platform: soc.Orin(), Policy: NaiveGPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	unknown := func(what string, estimate func(string) (float64, error)) {
		t.Helper()
		if _, err := estimate("NoSuchNet"); !errors.Is(err, errUnknownNetwork) {
			t.Fatalf("%s of an unknown network: error %v, want errUnknownNetwork", what, err)
		}
	}
	unknown("DemandGBps", rt.DemandGBps)
	unknown("repeated DemandGBps", rt.DemandGBps)
	unknown("StandaloneMs", rt.StandaloneMs)
	unknown("MixFitMs on an idle device", rt.MixFitMs)
	setPending(rt, []Request{{ID: 0, Tenant: "t", Network: "VGG19"}})
	unknown("MixFitMs against a pending queue", rt.MixFitMs)
	setPending(rt, nil)
	if got := rt.PrepareCalls(); got != 0 {
		t.Errorf("unknown network prepared %d times, want 0", got)
	}
	if c := rt.Cache(); c.Probes != 0 || len(c.slots) != 0 {
		t.Errorf("unknown network probed: %d probes, %d trie slots, want none", c.Probes, len(c.slots))
	}
	// A zoo network whose characterization failed is negative-cached: every
	// estimator returns the memoized failure without a prepare.
	boom := errors.New("characterization failed")
	failCharacterize(rt, "VGG19", boom)
	if _, err := rt.DemandGBps("VGG19"); !errors.Is(err, boom) {
		t.Errorf("DemandGBps of a failed network: %v, want the memoized failure", err)
	}
	if _, err := rt.StandaloneMs("VGG19"); !errors.Is(err, boom) {
		t.Errorf("StandaloneMs of a failed network: %v, want the memoized failure", err)
	}
	if got := rt.PrepareCalls(); got != 0 {
		t.Errorf("memoized failure re-prepared %d times, want 0", got)
	}
	// The success path shares one characterization across both estimators.
	if _, err := rt.DemandGBps("SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StandaloneMs("SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.DemandGBps("SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	if got := rt.PrepareCalls(); got != 1 {
		t.Errorf("%d prepares after an unknown, a failed and one good network, want 1", got)
	}
}

// TestFIFOMatchesLegacyDispatch: the fifo mix policy is the compatibility
// default — an unset MixPolicy and an explicit "fifo" must produce
// byte-identical summaries (the pre-mix-former dispatcher's behavior).
func TestFIFOMatchesLegacyDispatch(t *testing.T) {
	tr, err := Generate(twoTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	serveJSON := func(cfg Config) []byte {
		t.Helper()
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	def := serveJSON(Config{Platform: soc.Orin(), SolverTimeScale: 50})
	fifo := serveJSON(Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: MixFIFO})
	if !bytes.Equal(def, fifo) {
		t.Errorf("default and explicit fifo summaries differ:\n%s\nvs\n%s", def, fifo)
	}
}
