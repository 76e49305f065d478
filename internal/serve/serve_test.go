package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

func twoTenants() []TenantSpec {
	return []TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 140, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(twoTenants(), 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(twoTenants(), 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := Generate(twoTenants(), 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].ArrivalMs != c[i].ArrivalMs {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
	for i, r := range a {
		if r.ID != i {
			t.Errorf("request %d has ID %d", i, r.ID)
		}
		if r.ArrivalMs < 0 || r.ArrivalMs >= 500 {
			t.Errorf("request %d arrives at %g, outside [0, 500)", i, r.ArrivalMs)
		}
		if i > 0 && a[i-1].ArrivalMs > r.ArrivalMs {
			t.Errorf("trace not sorted at %d", i)
		}
	}

	// Arrival streams are keyed by tenant name: reordering the specs must
	// not perturb any tenant's arrivals.
	specs := twoTenants()
	specs[0], specs[1] = specs[1], specs[0]
	d, err := Generate(specs, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := func(tr Trace, tenant string) []float64 {
		var out []float64
		for _, r := range tr {
			if r.Tenant == tenant {
				out = append(out, r.ArrivalMs)
			}
		}
		return out
	}
	for _, tenant := range []string{"alice", "bob"} {
		av, dv := arrivals(a, tenant), arrivals(d, tenant)
		if len(av) != len(dv) {
			t.Fatalf("%s: %d vs %d arrivals after spec reorder", tenant, len(av), len(dv))
		}
		for i := range av {
			if av[i] != dv[i] {
				t.Fatalf("%s arrival %d moved after spec reorder: %g vs %g", tenant, i, av[i], dv[i])
			}
		}
	}
}

func TestGeneratePeriodic(t *testing.T) {
	tr, err := Generate([]TenantSpec{
		{Name: "cam", Network: "VGG19", PeriodMs: 100, PhaseMs: 5, SLOMs: 50},
	}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 10 {
		t.Fatalf("want 10 periodic arrivals, got %d", len(tr))
	}
	for i, r := range tr {
		want := 5 + 100*float64(i)
		if math.Abs(r.ArrivalMs-want) > 1e-9 {
			t.Errorf("arrival %d at %g, want %g", i, r.ArrivalMs, want)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []TenantSpec
		durMs float64
	}{
		{"no specs", nil, 100},
		{"bad duration", twoTenants(), 0},
		{"unknown network", []TenantSpec{{Name: "x", Network: "NoSuchNet", RateRPS: 10}}, 100},
		{"rate and period", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: 10, PeriodMs: 10}}, 100},
		{"neither rate nor period", []TenantSpec{{Name: "x", Network: "VGG19"}}, 100},
		{"duplicate tenant", []TenantSpec{
			{Name: "x", Network: "VGG19", RateRPS: 10},
			{Name: "x", Network: "ResNet152", RateRPS: 10},
		}, 100},
		{"reserved tenant name", []TenantSpec{{Name: "TOTAL", Network: "VGG19", RateRPS: 10}}, 100},
		{"infinite duration", twoTenants(), math.Inf(1)},
		{"NaN duration", twoTenants(), math.NaN()},
		{"infinite rate", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: math.Inf(1)}}, 100},
		{"NaN rate", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: math.NaN(), PeriodMs: 10}}, 100},
		{"infinite period", []TenantSpec{{Name: "x", Network: "VGG19", PeriodMs: math.Inf(1)}}, 100},
		{"infinite phase", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: 10, PhaseMs: math.Inf(1)}}, 100},
		{"NaN phase", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: 10, PhaseMs: math.NaN()}}, 100},
		{"infinite SLO", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: 10, SLOMs: math.Inf(1)}}, 100},
		{"NaN SLO", []TenantSpec{{Name: "x", Network: "VGG19", RateRPS: 10, SLOMs: math.NaN()}}, 100},
	}
	for _, tc := range cases {
		if _, err := Generate(tc.specs, tc.durMs, 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestGenerateBoundsArrivals: a spec set whose expected arrival count is
// over MaxTraceRequests, or whose arrival gap is below the clock's float
// spacing, is rejected before the trace is built, naming the tenant.
// Without the bound each case here loops or allocates without end.
func TestGenerateBoundsArrivals(t *testing.T) {
	cases := []struct {
		name  string
		specs []TenantSpec
		durMs float64
	}{
		// t += 1e-20 stops advancing near 1e-4 ms.
		{"sub-spacing period", []TenantSpec{{Name: "tiny", Network: "VGG19", PeriodMs: 1e-20, SLOMs: 10}}, 1000},
		{"sub-spacing Poisson rate", []TenantSpec{{Name: "tiny", Network: "VGG19", RateRPS: 1e25, SLOMs: 10}}, 1000},
		// Terminates, but asks for 1e9 requests.
		{"billion periodic arrivals", []TenantSpec{{Name: "tiny", Network: "VGG19", PeriodMs: 1e-6, SLOMs: 10}}, 1000},
		// Each tenant alone fits; together they do not.
		{"total over the cap", []TenantSpec{
			{Name: "a", Network: "VGG19", PeriodMs: 1.6e-4},
			{Name: "tiny", Network: "ResNet152", PeriodMs: 1.6e-4},
		}, 1000},
		// 1e5 expected arrivals, but at 1e15 ms a 0.01 ms step is lost.
		{"stalled clock", []TenantSpec{{Name: "tiny", Network: "VGG19", PeriodMs: 0.01, PhaseMs: 1e15}}, 1e15 + 1000},
	}
	for _, tc := range cases {
		_, err := Generate(tc.specs, tc.durMs, 1)
		if err == nil {
			t.Errorf("%s: expected an error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), `"tiny"`) {
			t.Errorf("%s: error %q does not name the tenant", tc.name, err)
		}
	}
}

// TestNewValidation: New names the field behind every rejected value — a
// negative count, beam or factor, or a non-finite float — and rejects a
// shared cache whose configuration differs from the one the runtime's
// configuration derives, in any of the five derived knobs.
func TestNewValidation(t *testing.T) {
	base := Config{Platform: soc.Orin(), SolverTimeScale: 50}
	with := func(edit func(*Config)) Config {
		c := base
		edit(&c)
		return c
	}
	for i, tc := range []struct {
		field string
		cfg   Config
	}{
		{"MaxBatch", with(func(c *Config) { c.MaxBatch = -1 })},
		{"MaxQueue", with(func(c *Config) { c.MaxQueue = -1 })},
		{"MaxWaitRounds", with(func(c *Config) { c.MaxWaitRounds = -1 })},
		{"ScoreBeam", with(func(c *Config) { c.ScoreBeam = -1 })},
		{"AdmitSLOFactor", with(func(c *Config) { c.AdmitSLOFactor = -1 })},
		{"AdmitSLOFactor", with(func(c *Config) { c.AdmitSLOFactor = math.NaN() })},
		{"AdmitSLOFactor", with(func(c *Config) { c.AdmitSLOFactor = math.Inf(1) })},
		{"AdmitSLOFactor", with(func(c *Config) { c.AdmitSLOFactor = math.Inf(-1) })},
		{"SolverTimeScale", with(func(c *Config) { c.SolverTimeScale = math.NaN() })},
		{"SolverTimeScale", with(func(c *Config) { c.SolverTimeScale = math.Inf(1) })},
		{"SolverTimeScale", with(func(c *Config) { c.SolverTimeScale = math.Inf(-1) })},
	} {
		_, err := New(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("case %d: New returned %v, want an error naming %s", i, err, tc.field)
		}
	}
	// A zero or negative time scale still means unscaled.
	for _, scale := range []float64{0, -1} {
		if _, err := New(with(func(c *Config) { c.SolverTimeScale = scale })); err != nil {
			t.Errorf("SolverTimeScale %g rejected: %v", scale, err)
		}
	}

	shared := func(edit func(*CacheConfig)) *Cache {
		cc := base.CacheConfig()
		edit(&cc)
		c, err := NewCache(cc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, err := New(with(func(c *Config) { c.SharedCache = shared(func(*CacheConfig) {}) })); err != nil {
		t.Errorf("matching shared cache rejected: %v", err)
	}
	for _, tc := range []struct {
		knob string
		edit func(*CacheConfig)
	}{
		{"platform", func(cc *CacheConfig) { cc.Platform = soc.Xavier() }},
		{"objective", func(cc *CacheConfig) { cc.Objective = schedule.MaxThroughput }},
		{"solve mode", func(cc *CacheConfig) { cc.Solve = false }},
		{"solver time scale", func(cc *CacheConfig) { cc.SolverTimeScale = 1 }},
		{"group cap", func(cc *CacheConfig) { cc.MaxGroups = 6 }},
	} {
		if _, err := New(with(func(c *Config) { c.SharedCache = shared(tc.edit) })); err == nil {
			t.Errorf("shared cache with a different %s accepted", tc.knob)
		}
	}
}

func TestCacheHitMissAndUpgrade(t *testing.T) {
	// A huge SolverTimeScale pins early Use calls to the first incumbent
	// (the naive seed) and releases later incumbents as virtual time
	// advances, making the upgrade path observable.
	cache, err := NewCache(CacheConfig{
		Platform:        soc.Orin(),
		Objective:       schedule.MinMaxLatency,
		Solve:           true,
		SolverTimeScale: 1e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	e1, hit, err := cache.Lookup([]string{"VGG19", "ResNet152"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first lookup reported a hit")
	}
	// Mix keys are order-insensitive: the reversed mix must hit.
	e2, hit, err := cache.Lookup([]string{"ResNet152", "VGG19"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || e2 != e1 {
		t.Error("reordered mix did not hit the same entry")
	}
	if cache.Hits != 1 || cache.Misses != 1 || cache.Len() != 1 {
		t.Errorf("hits=%d misses=%d len=%d, want 1/1/1", cache.Hits, cache.Misses, cache.Len())
	}
	if e1.Any == nil || len(e1.Any.History) < 2 {
		t.Fatal("anytime history needs >= 2 incumbents to observe an upgrade")
	}

	early := e1.Use(0)
	if cache.Upgrades != 0 {
		t.Errorf("upgrade counted at t=0")
	}
	late := e1.Use(1e12) // far enough for every incumbent to have landed
	if cache.Upgrades == 0 {
		t.Error("no upgrade counted after the full incumbent stream elapsed")
	}
	evEarly, err := e1.Evaluate(early)
	if err != nil {
		t.Fatal(err)
	}
	evLate, err := e1.Evaluate(late)
	if err != nil {
		t.Fatal(err)
	}
	if evLate.MakespanMs > evEarly.MakespanMs+1e-9 {
		t.Errorf("upgraded schedule is worse: %.3f ms vs %.3f ms", evLate.MakespanMs, evEarly.MakespanMs)
	}

	// A naive-only cache records no history and never upgrades.
	nc, err := NewCache(CacheConfig{Platform: soc.Orin(), Solve: false})
	if err != nil {
		t.Fatal(err)
	}
	ne, _, err := nc.Lookup([]string{"VGG19"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ne.Any != nil || ne.Use(1e12) != ne.Naive || nc.Upgrades != 0 {
		t.Error("naive-only cache entry should always deploy the naive schedule")
	}
}

// TestCacheProbeAccounting pins the scoring-probe contract: probing
// never counts as a hit or miss, never registers the mix (Export stays
// clean), and a later Lookup of the probed mix promotes the probe — same
// entry pointer, solve progress preserved from the probe's anchor — while
// counting the one real miss.
func TestCacheProbeAccounting(t *testing.T) {
	cache, err := NewCache(CacheConfig{
		Platform:        soc.Orin(),
		Objective:       schedule.MinMaxLatency,
		Solve:           true,
		SolverTimeScale: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	p1, live, err := cache.Probe([]string{"VGG19", "ResNet152"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Error("unseen mix probed as live")
	}
	if p1.Any == nil {
		t.Error("probe of a solving cache did not solve speculatively")
	}
	if p1.CreatedMs != 5 {
		t.Errorf("probe anchored at %.1f ms, want the probe instant 5", p1.CreatedMs)
	}
	p2, _, err := cache.Probe([]string{"ResNet152", "VGG19"}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("re-probe built a second entry instead of memoizing")
	}
	if cache.Hits != 0 || cache.Misses != 0 || cache.Len() != 0 {
		t.Errorf("probing perturbed accounting: hits=%d misses=%d len=%d, want 0/0/0",
			cache.Hits, cache.Misses, cache.Len())
	}
	if got := len(cache.Export().Entries); got != 0 {
		t.Errorf("probe leaked into the export: %d entries", got)
	}

	e, hit, err := cache.Lookup([]string{"VGG19", "ResNet152"}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("promoting lookup reported a hit")
	}
	if e != p1 {
		t.Error("lookup rebuilt the mix instead of promoting the probe")
	}
	if e.CreatedMs != 5 {
		t.Errorf("promotion re-anchored CreatedMs to %.1f, want the probe's 5 (speculative solve progress)", e.CreatedMs)
	}
	if cache.Misses != 1 || cache.Len() != 1 {
		t.Errorf("after promotion: misses=%d len=%d, want 1/1", cache.Misses, cache.Len())
	}
	if _, live, err := cache.Probe([]string{"VGG19", "ResNet152"}, 30); err != nil || !live {
		t.Errorf("probe of a dispatched mix: live=%v err=%v, want true, nil", live, err)
	}

	// A failing characterization is negative-cached: the memoized error
	// comes back on every re-probe instead of a repeated prepare.
	_, _, err1 := cache.Probe([]string{"VGG19", "NoSuchNet"}, 40)
	if err1 == nil {
		t.Fatal("unknown network probed without error")
	}
	_, _, err2 := cache.Probe([]string{"NoSuchNet", "VGG19"}, 41)
	if err2 == nil {
		t.Fatal("re-probe of a failing mix lost its error")
	}
	if err1 != err2 {
		t.Errorf("failing probe not memoized: %v vs %v", err1, err2)
	}
}

func TestSLOAccounting(t *testing.T) {
	mk := func(tenant string, lat float64, violated, rejected bool) Completion {
		c := Completion{Request: Request{Tenant: tenant, Network: "VGG19", SLOMs: 10}}
		if rejected {
			c.Rejected = true
			return c
		}
		c.LatencyMs = lat
		c.EndMs = lat
		c.Violated = violated
		return c
	}
	cases := []struct {
		name           string
		completions    []Completion
		wantOffered    int
		wantCompleted  int
		wantRejected   int // Completed must equal Offered - Rejected
		wantViolations int
		wantRate       float64
		wantP50        float64
		wantP99        float64
	}{
		{
			name: "all within SLO",
			completions: []Completion{
				mk("a", 1, false, false), mk("a", 2, false, false),
				mk("a", 3, false, false), mk("a", 4, false, false),
			},
			wantOffered: 4, wantCompleted: 4,
			wantP50: 2, wantP99: 4,
		},
		{
			name: "half violated",
			completions: []Completion{
				mk("a", 5, false, false), mk("a", 15, true, false),
				mk("a", 6, false, false), mk("a", 20, true, false),
			},
			wantOffered: 4, wantCompleted: 4, wantViolations: 2, wantRate: 0.5,
			wantP50: 6, wantP99: 20,
		},
		{
			name: "rejections excluded from latency stats",
			completions: []Completion{
				mk("a", 8, false, false),
				mk("a", 0, false, true),
				mk("a", 0, false, true),
			},
			wantOffered: 3, wantCompleted: 1, wantRejected: 2,
			wantP50: 8, wantP99: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := Summarize(tc.completions, ContentionAware, "Orin", schedule.MinMaxLatency)
			tot := sum.Total
			if tot.Offered != tc.wantOffered || tot.Completed != tc.wantCompleted || tot.Rejected != tc.wantRejected {
				t.Errorf("offered/completed/rejected = %d/%d/%d, want %d/%d/%d",
					tot.Offered, tot.Completed, tot.Rejected, tc.wantOffered, tc.wantCompleted, tc.wantRejected)
			}
			if tot.Violations != tc.wantViolations {
				t.Errorf("violations = %d, want %d", tot.Violations, tc.wantViolations)
			}
			if math.Abs(tot.ViolationRate-tc.wantRate) > 1e-9 {
				t.Errorf("violation rate = %g, want %g", tot.ViolationRate, tc.wantRate)
			}
			if tot.P50Ms != tc.wantP50 || tot.P99Ms != tc.wantP99 {
				t.Errorf("p50/p99 = %g/%g, want %g/%g", tot.P50Ms, tot.P99Ms, tc.wantP50, tc.wantP99)
			}
			if len(sum.Tenants) != 1 || sum.Tenants[0].Tenant != "a" {
				t.Errorf("tenant breakdown = %+v", sum.Tenants)
			}
		})
	}
}

func TestAdmissionControl(t *testing.T) {
	// A burst of simultaneous arrivals against MaxQueue=1 must shed load.
	var tr Trace
	for i := 0; i < 8; i++ {
		tr = append(tr, Request{ID: i, Tenant: "burst", Network: "VGG19", ArrivalMs: 0, SLOMs: 100})
	}
	rt, err := New(Config{Platform: soc.Orin(), Policy: NaiveGPUOnly, MaxQueue: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total.Rejected == 0 {
		t.Error("MaxQueue=1 rejected nothing from an 8-request burst")
	}
	if sum.Total.Completed+sum.Total.Rejected != len(tr) {
		t.Errorf("completed %d + rejected %d != offered %d", sum.Total.Completed, sum.Total.Rejected, len(tr))
	}
}

// TestMaxQueueCountsPerTenant: two tenants share a MaxQueue=2 runtime.
// Each tenant's third simultaneous arrival is rejected while the other's
// queue does not count against it, and a dispatched request frees its
// tenant's slot for the next arrival.
func TestMaxQueueCountsPerTenant(t *testing.T) {
	rt, err := New(Config{Platform: soc.Orin(), Policy: NaiveGPUOnly, MaxQueue: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	offer := func(id int, tenant string, at float64) bool {
		t.Helper()
		rejected, err := rt.Offer(Request{ID: id, Tenant: tenant, Network: "VGG19", ArrivalMs: at})
		if err != nil {
			t.Fatal(err)
		}
		return rejected
	}
	var got []bool
	for i, tenant := range []string{"a", "b", "a", "b", "a", "b"} {
		got = append(got, offer(i, tenant, 0))
	}
	if want := []bool{false, false, false, false, true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rejections %v, want %v", got, want)
	}
	// MaxBatch 1 and FIFO: the first round serves tenant a's oldest
	// request, so a has room for one more and b still has none.
	if err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	at := rt.ClockMs()
	if offer(6, "b", at) != true || offer(7, "a", at) != false || offer(8, "a", at) != true {
		t.Error("after one dispatch of tenant a: want b rejected, then a admitted once")
	}
}

// TestServeComparison is the acceptance demo: a two-tenant Poisson trace
// over VGG19 + ResNet152 on Orin, where the contention-aware runtime must
// beat the naive single-accelerator baseline on p99 latency and SLO
// violations while the schedule cache shows hits on repeated mixes.
func TestServeComparison(t *testing.T) {
	tr, err := Generate(twoTenants(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Compare(tr, Legs(Config{Platform: soc.Orin(), SolverTimeScale: 50})...)
	if err != nil {
		t.Fatal(err)
	}
	naive, aware := rows[0].Total, rows[1].Total
	if aware.P99Ms >= naive.P99Ms || rows[1].P99ImprPct <= 0 {
		t.Errorf("contention-aware p99 %.2f ms not better than naive %.2f ms (%+.1f%%)",
			aware.P99Ms, naive.P99Ms, rows[1].P99ImprPct)
	}
	if aware.Violations >= naive.Violations || rows[1].ViolationsAvoided != naive.Violations-aware.Violations {
		t.Errorf("contention-aware violations %d not fewer than naive %d (%d avoided)",
			aware.Violations, naive.Violations, rows[1].ViolationsAvoided)
	}
	awareSum := rows[1].Summary.(*Summary)
	if awareSum.CacheHits == 0 {
		t.Error("schedule cache shows no hits on repeated workload mixes")
	}
	if aware.Completed != naive.Completed {
		t.Errorf("policies served different request counts: %d vs %d", aware.Completed, naive.Completed)
	}
	t.Logf("aware p99=%.2f viol=%d | naive p99=%.2f viol=%d | hits=%d upgrades=%d",
		aware.P99Ms, aware.Violations, naive.P99Ms, naive.Violations,
		awareSum.CacheHits, awareSum.CacheUpgrades)
}

// TestCompareRowMatchesStandalone: a leg's row is exactly what serving
// its configuration on its own gives, whatever the legs around it, and
// an error names its leg.
func TestCompareRowMatchesStandalone(t *testing.T) {
	tr, err := Generate(twoTenants(), 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: MixDemandBalance}
	legs := Legs(cfg)
	rows, err := Compare(tr, legs...)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.Leg+"/"+r.MixPolicy)
	}
	want := []string{"naive-gpu-only/demand-balance", "contention-aware/demand-balance",
		"mix-fifo/fifo", "mix-contention-aware/contention-aware"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("legs = %v, want %v", names, want)
	}
	for i, leg := range legs {
		alone, err := Compare(tr, leg)
		if err != nil {
			t.Fatal(err)
		}
		got, standalone := rows[i], alone[0]
		// Only the figures against the baseline depend on the other legs.
		got.P99ImprPct, got.ViolationsAvoided, got.ThroughputImprPct, got.DeviceMsSavedPct = 0, 0, 0, 0
		if a, b := mustMarshal(t, got), mustMarshal(t, standalone); !bytes.Equal(a, b) {
			t.Errorf("%s: row in the comparison differs from the leg served alone:\n%s\nvs\n%s", leg.Name, a, b)
		}
		c := cfg
		if leg.Name == NaiveGPUOnly.String() {
			c.Policy = NaiveGPUOnly
		} else if leg.Name != ContentionAware.String() {
			c.MixPolicy = rows[i].MixPolicy
		}
		rt, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := mustMarshal(t, rows[i].Summary), mustMarshal(t, sum); !bytes.Equal(a, b) {
			t.Errorf("%s: leg summary differs from a runtime built from its configuration", leg.Name)
		}
		if r := rows[i]; r.Total != sum.Total || r.DeviceMs != sum.DurationMs || r.PeakDevices != 1 ||
			r.Pool != "Orin" || r.SLOAttainmentPct != sum.Total.SLOAttainmentPct() {
			t.Errorf("%s: row %+v does not carry the summary's figures", leg.Name, r)
		}
		if r, base := rows[i], rows[0].Total; r.ViolationsAvoided != base.Violations-r.Total.Violations ||
			r.P99ImprPct != 100*(1-r.Total.P99Ms/base.P99Ms) {
			t.Errorf("%s: %+.2f%% p99, %+d violations: not against the first leg", leg.Name, r.P99ImprPct, r.ViolationsAvoided)
		}
	}
	if _, err := Compare(tr, legs[0], RuntimeLeg("broken", Config{})); err == nil || !strings.HasPrefix(err.Error(), "broken leg: ") {
		t.Errorf("failing leg's error = %v, want it to name the leg", err)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
