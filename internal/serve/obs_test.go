package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"haxconn/internal/obs"
	"haxconn/internal/soc"
)

// serveJSON serves tr on a fresh runtime under cfg and returns the
// marshaled summary.
func serveJSON(t *testing.T, cfg Config, tr Trace) []byte {
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

// TestTracingNoPerturbation: attaching a tracer must not change a single
// byte of the summary — observability watches the timeline, it never
// steers it. Checked for fifo and for contention-aware (whose scoring
// path emits the densest event stream), and through a comparison of
// Legs, whose legs are renamed for track separation only when a sink is
// attached.
func TestTracingNoPerturbation(t *testing.T) {
	tr, err := Generate(MixedDemandTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{MixFIFO, MixContentionAware} {
		base := Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: policy}
		plain := serveJSON(t, base, tr)
		traced := base
		traced.Tracer = obs.NewTracer()
		got := serveJSON(t, traced, tr)
		if !bytes.Equal(plain, got) {
			t.Errorf("%s: tracing changed the summary:\n%s\nvs\n%s", policy, plain, got)
		}
		if traced.Tracer.Len() == 0 {
			t.Errorf("%s: tracer saw no events; no-perturbation check is vacuous", policy)
		}
	}

	cmpOnce := func(tracer *obs.Tracer) []byte {
		t.Helper()
		cfg := Config{Platform: soc.Orin(), SolverTimeScale: 50, Tracer: tracer}
		rows, err := Compare(tr, Legs(cfg)...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := cmpOnce(nil)
	tracer := obs.NewTracer()
	traced := cmpOnce(tracer)
	if !bytes.Equal(plain, traced) {
		t.Errorf("Compare: tracing changed the comparison:\n%s\nvs\n%s", plain, traced)
	}
	// The legs must be on distinct tracks: every event carries a renamed
	// device, never the bare platform name.
	for _, e := range tracer.Events() {
		if e.Device == "Orin" {
			t.Fatalf("Compare leg event kept bare device name %q: legs would overlap in one trace", e.Device)
		}
	}
}

// TestCompareChromeTrackLayout: under a shared tracer Legs renames each
// leg's device, and the Chrome export must lay the legs out
// as separate named device tracks — no track named after the bare
// platform, every leg present, and no two thread labels colliding within
// a process.
func TestCompareChromeTrackLayout(t *testing.T) {
	tr, err := Generate(twoTenants(), 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer()
	if _, err := Compare(tr, Legs(Config{Platform: soc.Orin(), SolverTimeScale: 50, Tracer: tracer})...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	// Collect the thread labels per process from the metadata records.
	labels := map[int]map[string]int{}
	for _, e := range parsed.TraceEvents {
		if e.Phase != "M" || e.Name != "thread_name" {
			continue
		}
		name, _ := e.Args["name"].(string)
		if labels[e.PID] == nil {
			labels[e.PID] = map[string]int{}
		}
		labels[e.PID][name]++
	}
	for pid, byName := range labels {
		for name, n := range byName {
			if n > 1 {
				t.Errorf("process %d has %d tracks labeled %q", pid, n, name)
			}
		}
	}
	var deviceTracks []string
	for name := range labels[1] {
		deviceTracks = append(deviceTracks, name)
	}
	for _, want := range []string{"Orin/naive-gpu-only", "Orin/contention-aware", "Orin/mix-demand-balance", "Orin/mix-contention-aware"} {
		if labels[1][want] == 0 {
			t.Errorf("no device track %q (device tracks: %v)", want, deviceTracks)
		}
	}
	if labels[1]["Orin"] != 0 {
		t.Errorf("bare platform track %q present: compare legs would overlap", "Orin")
	}
	if labels[1]["Orin/mix-fifo"] != 0 {
		t.Error("fifo served twice: the contention-aware leg already runs the default mix")
	}
}

// TestAuditNoPerturbation: attaching a prediction audit must not change a
// single byte of the summary — the audit re-evaluates schedules under the
// analytic model, and none of that may leak into the timeline. Checked
// for fifo and contention-aware, with and without a tracer alongside.
func TestAuditNoPerturbation(t *testing.T) {
	tr, err := Generate(MixedDemandTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{MixFIFO, MixContentionAware} {
		base := Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: policy}
		plain := serveJSON(t, base, tr)
		audited := base
		audited.Audit = obs.NewAudit()
		if got := serveJSON(t, audited, tr); !bytes.Equal(plain, got) {
			t.Errorf("%s: auditing changed the summary:\n%s\nvs\n%s", policy, plain, got)
		}
		if audited.Audit.Len() == 0 {
			t.Errorf("%s: audit saw no pairs; no-perturbation check is vacuous", policy)
		}
		both := base
		both.Audit = obs.NewAudit()
		both.Tracer = obs.NewTracer()
		if got := serveJSON(t, both, tr); !bytes.Equal(plain, got) {
			t.Errorf("%s: audit+tracer changed the summary", policy)
		}
	}
}

// TestAuditStream: the forensics stream must be complete and internally
// consistent — one round-level pair per dispatch round, one per-request
// pair per completion, actuals agreeing with the summary's ground truth,
// and the streamed aggregates conserving every pair.
func TestAuditStream(t *testing.T) {
	tr, err := Generate(MixedDemandTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	audit := obs.NewAudit()
	tracer := obs.NewTracer()
	rt, err := New(Config{
		Platform:        soc.Orin(),
		SolverTimeScale: 50,
		MixPolicy:       MixContentionAware,
		Audit:           audit,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	rounds, requests := 0, 0
	for _, e := range tracer.Events() {
		if e.Kind != obs.KindAudit {
			continue
		}
		if e.Request == obs.NoRequest {
			rounds++
			for _, k := range []string{"predicted_ms", "actual_ms"} {
				if _, ok := e.Metrics[k]; !ok {
					t.Fatalf("round audit event missing %q: %+v", k, e)
				}
			}
			continue
		}
		requests++
		for _, k := range []string{"predicted_lat_ms", "actual_lat_ms", "queue_wait_ms", "slo_ms"} {
			if _, ok := e.Metrics[k]; !ok {
				t.Fatalf("request audit event missing %q: %+v", k, e)
			}
		}
		if e.Metrics["queue_wait_ms"] < 0 {
			t.Errorf("request %d: negative queue wait %v", e.Request, e.Metrics["queue_wait_ms"])
		}
		if e.Metrics["actual_lat_ms"] <= 0 {
			t.Errorf("request %d: non-positive actual latency", e.Request)
		}
	}
	if rounds != sum.Rounds {
		t.Errorf("round audit events = %d, want one per round (%d)", rounds, sum.Rounds)
	}
	if requests != sum.Total.Completed {
		t.Errorf("request audit events = %d, want one per completion (%d)", requests, sum.Total.Completed)
	}

	// The aggregates must conserve the stream: per-scope counts sum to
	// the pair totals, and every histogram partitions its count.
	scopeCounts := map[string]int{}
	for _, s := range audit.Snapshot() {
		if s.Layer != "serve" {
			t.Errorf("unexpected layer %q in a single-device run", s.Layer)
		}
		scopeCounts[s.Scope] += s.Count
		bsum := 0
		for _, b := range s.Buckets {
			bsum += b
		}
		if bsum != s.Count {
			t.Errorf("%s/%s: buckets sum to %d, want %d", s.Scope, s.Key, bsum, s.Count)
		}
		if s.Count > 0 && s.MeanActualMs <= 0 {
			t.Errorf("%s/%s: mean actual %.4f not positive", s.Scope, s.Key, s.MeanActualMs)
		}
	}
	if got, want := scopeCounts["mix"], sum.Rounds; got != want {
		t.Errorf("mix-scope pairs = %d, want %d", got, want)
	}
	for _, scope := range []string{"tenant", "network"} {
		if got, want := scopeCounts[scope], sum.Total.Completed; got != want {
			t.Errorf("%s-scope pairs = %d, want %d", scope, got, want)
		}
	}
}

// TestTraceLifecycleCoverage: a config that exercises admission control,
// contention-aware scoring and tight SLOs must leave at least one event
// at every lifecycle stage, with arrivals and completions conserved.
func TestTraceLifecycleCoverage(t *testing.T) {
	specs := []TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 200, SLOMs: 6},
		{Name: "bob", Network: "ResNet152", RateRPS: 200, SLOMs: 7},
	}
	tr, err := Generate(specs, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer()
	rt, err := New(Config{
		Platform:        soc.Orin(),
		SolverTimeScale: 50,
		MixPolicy:       MixContentionAware,
		MaxQueue:        2,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	counts := tracer.CountByKind()
	for _, kind := range []string{
		obs.KindArrive, obs.KindAdmit, obs.KindReject, obs.KindMixForm,
		obs.KindMixScore, obs.KindCacheMiss, obs.KindCacheHit,
		obs.KindCacheProbe, obs.KindDispatch,
		obs.KindComplete, obs.KindViolate,
	} {
		if counts[kind] == 0 {
			t.Errorf("no %q events (counts: %v)", kind, counts)
		}
	}
	// Every miss resolves by a fresh solve or by promoting a scoring
	// probe; under contention-aware forming it is usually the latter.
	if counts[obs.KindCacheSolve]+counts[obs.KindCachePromote] == 0 {
		t.Errorf("no cache-solve or cache-promote events (counts: %v)", counts)
	}
	if got, want := counts[obs.KindArrive], len(tr); got != want {
		t.Errorf("arrive events = %d, want one per request (%d)", got, want)
	}
	if got, want := counts[obs.KindAdmit]+counts[obs.KindReject], len(tr); got != want {
		t.Errorf("admit (%d) + reject (%d) = %d, want %d", counts[obs.KindAdmit], counts[obs.KindReject], got, want)
	}
	if got, want := counts[obs.KindComplete], sum.Total.Completed; got != want {
		t.Errorf("complete events = %d, want %d", got, want)
	}
	if got, want := counts[obs.KindViolate], sum.Total.Violations; got != want {
		t.Errorf("violate events = %d, want %d", got, want)
	}
	if got, want := counts[obs.KindReject], sum.Total.Rejected; got != want {
		t.Errorf("reject events = %d, want %d", got, want)
	}
	if got, want := counts[obs.KindDispatch], sum.Rounds; got != want {
		t.Errorf("dispatch spans = %d, want one per round (%d)", got, want)
	}

	// The stream must round-trip through both export formats.
	var jsonl, chrome bytes.Buffer
	if err := tracer.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < tracer.Len() {
		t.Errorf("Chrome trace has %d events for %d emitted", len(parsed.TraceEvents), tracer.Len())
	}
}

// TestSketchSummaryMatchesExact: sketch-mode summaries must agree with
// the stored-sample path exactly on counts and within the documented
// ±1% on every latency percentile, for both arrival processes.
func TestSketchSummaryMatchesExact(t *testing.T) {
	for _, arrivals := range []string{"poisson", "periodic"} {
		specs := twoTenants()
		if arrivals == "periodic" {
			for i := range specs {
				specs[i].RateRPS = 0
				specs[i].PeriodMs = 7
			}
		}
		tr, err := Generate(specs, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func(sketch bool) *Summary {
			t.Helper()
			rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, SketchMetrics: sketch})
			if err != nil {
				t.Fatal(err)
			}
			sum, err := rt.Serve(tr)
			if err != nil {
				t.Fatal(err)
			}
			return sum
		}
		exact, sketched := run(false), run(true)
		rows := func(s *Summary) []TenantStats { return append(append([]TenantStats(nil), s.Tenants...), s.Total) }
		er, sr := rows(exact), rows(sketched)
		if len(er) != len(sr) {
			t.Fatalf("%s: tenant row counts differ: %d vs %d", arrivals, len(er), len(sr))
		}
		for i := range er {
			e, s := er[i], sr[i]
			if e.Tenant != s.Tenant || e.Offered != s.Offered || e.Completed != s.Completed ||
				e.Rejected != s.Rejected || e.Violations != s.Violations {
				t.Errorf("%s/%s: exact-count fields differ: %+v vs %+v", arrivals, e.Tenant, e, s)
			}
			for _, q := range []struct {
				name          string
				exact, sketch float64
			}{
				{"p50", e.P50Ms, s.P50Ms},
				{"p95", e.P95Ms, s.P95Ms},
				{"p99", e.P99Ms, s.P99Ms},
			} {
				if q.exact == 0 {
					continue
				}
				if rel := math.Abs(q.sketch-q.exact) / q.exact; rel > 0.01 {
					t.Errorf("%s/%s %s: sketch %.4f vs exact %.4f (rel err %.4f > 0.01)",
						arrivals, e.Tenant, q.name, q.sketch, q.exact, rel)
				}
			}
			if e.MaxMs != s.MaxMs {
				t.Errorf("%s/%s: max %.4f vs %.4f (sketch tracks exact max)", arrivals, e.Tenant, s.MaxMs, e.MaxMs)
			}
			if math.Abs(e.MeanMs-s.MeanMs) > 1e-9 {
				t.Errorf("%s/%s: mean %.6f vs %.6f (sketch sum is exact)", arrivals, e.Tenant, s.MeanMs, e.MeanMs)
			}
		}
	}
}

// TestMetricsRegistryFill: the counters a serve run drops into the
// registry must agree with its summary.
func TestMetricsRegistryFill(t *testing.T) {
	tr, err := Generate(twoTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"serve.Orin.completions": float64(sum.Total.Completed),
		"serve.Orin.rounds":      float64(sum.Rounds),
		"serve.Orin.cache_hits":  float64(sum.CacheHits),
		"cache.Orin.hits":        float64(sum.CacheHits),
	} {
		if got := reg.Get(key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

// TestAdaptiveWaitBound: the slack-scaled bound collapses toward 1 as the
// oldest request's SLO slack burns down and never exceeds the configured
// maximum.
func TestAdaptiveWaitBound(t *testing.T) {
	cases := []struct {
		name    string
		slo     float64
		arrival float64
		now     float64
		want    int
	}{
		{"no SLO keeps the static bound", 0, 0, 500, 8},
		{"full slack keeps the static bound", 100, 100, 100, 8},
		{"half slack halves the headroom", 100, 100, 150, 4},
		{"exhausted slack forces next round", 100, 100, 200, 1},
		{"negative slack forces next round", 100, 100, 400, 1},
	}
	for _, tc := range cases {
		c := Candidate{Request: Request{ArrivalMs: tc.arrival, SLOMs: tc.slo}}
		if got := adaptiveWaitBound(8, c, tc.now); got != tc.want {
			t.Errorf("%s: adaptiveWaitBound = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// starveOldest is a mix former that always picks the newest candidate,
// starving the head of the queue — the adversarial case the max-wait
// bound exists for.
type starveOldest struct{}

func (starveOldest) Name() string      { return "starve-oldest" }
func (starveOldest) DemandAware() bool { return false }
func (starveOldest) Form(in FormInput) []int {
	n := len(in.Eligible)
	if n == 0 {
		return nil
	}
	// Fill the whole batch newest-first, skipping the head so the
	// fallback queue-order fill cannot rescue it — only the max-wait
	// force can.
	var out []int
	for i := n - 1; i >= 1 && len(out) < in.MaxBatch; i-- {
		out = append(out, i)
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}

// TestAdaptiveMaxWaitForcesSooner: under a starving former, SLO-slack
// scaling must force the head of the queue well before the static bound
// (which the run never even reaches), improving tail latency — and no
// forced request may wait beyond the static bound, since the adaptive
// bound only ever shrinks it.
func TestAdaptiveMaxWaitForcesSooner(t *testing.T) {
	specs := []TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 160, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 160, SLOMs: 12},
	}
	tr, err := Generate(specs, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(adaptive bool) (*Summary, map[string]int, int) {
		t.Helper()
		tracer := obs.NewTracer()
		rt, err := New(Config{
			Platform:        soc.Orin(),
			SolverTimeScale: 50,
			Mix:             starveOldest{},
			MaxWaitRounds:   30,
			AdaptiveMaxWait: adaptive,
			Tracer:          tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		maxWaited := 0
		for _, e := range tracer.Events() {
			if e.Kind == obs.KindForce && int(e.Value) > maxWaited {
				maxWaited = int(e.Value)
			}
		}
		return sum, tracer.CountByKind(), maxWaited
	}
	staticSum, staticCounts, _ := run(false)
	adaptSum, adaptCounts, adaptWaited := run(true)
	if adaptCounts[obs.KindForce] == 0 {
		t.Fatal("adaptive bound never forced; starving former regression is vacuous")
	}
	if adaptCounts[obs.KindForce] <= staticCounts[obs.KindForce] {
		t.Errorf("adaptive bound forced %d times, static %d — expected strictly more",
			adaptCounts[obs.KindForce], staticCounts[obs.KindForce])
	}
	if adaptWaited > 30 {
		t.Errorf("adaptive run forced a request after %d rounds, beyond the static bound 30", adaptWaited)
	}
	if adaptSum.Total.P99Ms >= staticSum.Total.P99Ms {
		t.Errorf("adaptive max-wait p99 %.2f ms not better than static %.2f ms under a starving former",
			adaptSum.Total.P99Ms, staticSum.Total.P99Ms)
	}
}
