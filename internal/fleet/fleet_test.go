package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"haxconn/internal/obs"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// defaultTrace is the repo's canonical two-tenant demo trace (the same one
// cmd/serve and cmd/fleet default to).
func defaultTrace(t *testing.T) serve.Trace {
	t.Helper()
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 140, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
	}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func threeDeviceConfig() Config {
	return Config{
		Devices: []DeviceSpec{
			{Platform: "Orin"}, {Platform: "Xavier"}, {Platform: "SD865"},
		},
		Device: serve.Config{SolverTimeScale: 50},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no devices", Config{}},
		{"unknown platform", Config{Devices: []DeviceSpec{{Platform: "Exynos"}}}},
		{"negative count", Config{Devices: []DeviceSpec{{Platform: "Orin", Count: -1}}}},
		{"template platform", Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{Platform: soc.Orin()}}},
		{"template name", Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{Name: "edge"}}},
		{"template shared cache", Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{SharedCache: &serve.Cache{}}}},
		{"template mix", Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{Mix: serve.FIFO()}}},
		{"template NaN scale", Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{SolverTimeScale: math.NaN()}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
		// A comparison rejects it too: Legs up front, or the leg built from it.
		if legs, err := Legs(tc.cfg); err == nil {
			if _, err := serve.Compare(nil, legs...); err == nil {
				t.Errorf("%s: comparison accepted the config", tc.name)
			}
		}
	}
}

func TestDeviceNamingAndPool(t *testing.T) {
	f, err := New(Config{Devices: []DeviceSpec{
		{Platform: "Orin", Count: 2}, {Platform: "Xavier"}, {Platform: "Orin"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Orin/0", "Orin/1", "Xavier/0", "Orin/2"}
	devs := f.Devices()
	if len(devs) != len(want) {
		t.Fatalf("%d devices, want %d", len(devs), len(want))
	}
	for i, d := range devs {
		if d.Name() != want[i] {
			t.Errorf("device %d named %q, want %q", i, d.Name(), want[i])
		}
	}
	if got := f.Pool(); got != "Orin+Orin+Xavier+Orin" {
		t.Errorf("pool = %q", got)
	}
}

// TestFleetBeatsSingleSoC is the PR's acceptance demo: on the default
// two-tenant trace, a three-device Orin+Xavier+SD865 pool under
// least-loaded or affinity placement must beat contention-aware serving on
// a single Orin on both fleet p99 latency and SLO violations.
func TestFleetBeatsSingleSoC(t *testing.T) {
	tr := defaultTrace(t)
	rows := compare(t, threeDeviceConfig(), tr)
	if rows[0].Leg != "single:Orin" {
		t.Fatalf("baseline leg %q, want single:Orin", rows[0].Leg)
	}
	if len(rows) != 5 {
		t.Fatalf("%d legs, want the single SoC and 4 placements (round-robin, least-loaded, affinity, mix-aware)", len(rows))
	}
	single := rows[0].Total
	won := false
	for _, r := range rows[1:] {
		fs := r.Summary.(*Summary)
		if fs.Placement != "least-loaded" && fs.Placement != "affinity" {
			continue
		}
		if fs.Total.P99Ms < single.P99Ms && fs.Total.Violations < single.Violations {
			won = true
			if r.P99ImprPct <= 0 || r.ViolationsAvoided <= 0 {
				t.Errorf("%s beats the single SoC but its row reads %+.1f%% p99, %+d violations", r.Leg, r.P99ImprPct, r.ViolationsAvoided)
			}
		}
		t.Logf("%-12s p99=%.2f ms viol=%d slo=%.1f%% (single: p99=%.2f viol=%d)",
			fs.Placement, fs.Total.P99Ms, fs.Total.Violations, fs.SLOAttainmentPct,
			single.P99Ms, single.Violations)
	}
	if !won {
		t.Error("neither least-loaded nor affinity beat single-SoC serving on p99 and violations")
	}
	// Every configuration must settle every offered request's fate:
	// offered counts match the trace on each leg.
	for _, r := range rows {
		if r.Total.Offered != len(tr) {
			t.Errorf("%s: offered %d != trace %d", r.Leg, r.Total.Offered, len(tr))
		}
	}
}

// TestCompareSingleLegUsesTemplate: the single-SoC baseline leg is built
// from the same device template as the fleets, so it serves exactly what
// a runtime built from that template on the first platform serves —
// every knob included, AdaptiveMaxWait and SketchMetrics among them.
func TestCompareSingleLegUsesTemplate(t *testing.T) {
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 300, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 300, SLOMs: 12},
		{Name: "carol", Network: "GoogleNet", RateRPS: 300, SLOMs: 8},
		{Name: "dave", Network: "DenseNet", RateRPS: 300, SLOMs: 15},
	}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := serve.Config{
		MixPolicy:       serve.MixDemandBalance,
		MaxWaitRounds:   8,
		SolverTimeScale: 50,
		AdaptiveMaxWait: true,
		SketchMetrics:   true,
	}
	rows := compare(t, Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: tmpl}, tr, RoundRobin())
	rc := tmpl
	rc.Platform = mustPlatform(t, "Orin")
	rt, err := serve.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, rows[0].Summary), mustJSON(t, want); !bytes.Equal(got, want) {
		t.Errorf("single leg diverged from a runtime built from the template:\nsingle:  %s\nruntime: %s", got, want)
	}
}

// compare serves tr on cfg's comparison legs.
func compare(t *testing.T, cfg Config, tr serve.Trace, placements ...Placer) []serve.Row {
	t.Helper()
	legs, err := Legs(cfg, placements...)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := serve.Compare(tr, legs...)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSingleDeviceFleetMatchesRuntime pins the fleet event loop to the
// single-device serving semantics: a one-device fleet under round-robin
// must reproduce serve.Runtime.Serve exactly.
func TestSingleDeviceFleetMatchesRuntime(t *testing.T) {
	tr := defaultTrace(t)
	rt, err := serve.New(serve.Config{Platform: mustPlatform(t, "Orin"), SolverTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{SolverTimeScale: 50}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := mustJSON(t, want.Total)
	gotJSON := mustJSON(t, got.Total)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("one-device fleet diverged from the runtime:\nfleet:   %s\nruntime: %s", gotJSON, wantJSON)
	}
	if got.Rounds != want.Rounds {
		t.Errorf("rounds %d != %d", got.Rounds, want.Rounds)
	}
}

// TestFleetDevicesKeepNoLog: a fleet's devices log nothing — their
// completions reach the fleet once each, through the stream OnComplete
// taps — and the fleet summary, merged from the device tallies, equals
// one Summarize over the streamed completions in device order.
func TestFleetDevicesKeepNoLog(t *testing.T) {
	tr := defaultTrace(t)
	cfg := threeDeviceConfig()
	cfg.Device.MaxQueue = 3
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perDevice := make([][]serve.Completion, len(f.Devices()))
	f.OnComplete(func(i int, c serve.Completion) { perDevice[i] = append(perDevice[i], c) })
	sum, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total.Rejected == 0 {
		t.Fatal("no rejection: the stream would not cover one")
	}
	var all []serve.Completion
	seen := map[int]bool{}
	for i, d := range f.Devices() {
		if cs := d.(*serve.Runtime).Completions(); cs != nil {
			t.Errorf("device %s logged %d completions", d.Name(), len(cs))
		}
		for _, c := range perDevice[i] {
			if seen[c.ID] {
				t.Fatalf("request %d streamed twice", c.ID)
			}
			seen[c.ID] = true
		}
		all = append(all, perDevice[i]...)
	}
	if len(all) != len(tr) {
		t.Fatalf("streamed %d completions for %d requests", len(all), len(tr))
	}
	want := serve.Summarize(all, cfg.Device.Policy, sum.Pool, cfg.Device.Objective)
	if got, w := mustJSON(t, sum.Tenants), mustJSON(t, want.Tenants); !bytes.Equal(got, w) {
		t.Errorf("merged tenant rows differ from one fold:\nmerged %s\nfolded %s", got, w)
	}
	if got, w := mustJSON(t, sum.Total), mustJSON(t, want.Total); !bytes.Equal(got, w) {
		t.Errorf("merged TOTAL differs from one fold:\nmerged %s\nfolded %s", got, w)
	}
}

// TestPlacementSpreadsLoad checks that every placement policy uses the
// whole pool and that least-loaded balances an Orin-only pool evenly.
func TestPlacementSpreadsLoad(t *testing.T) {
	tr := defaultTrace(t)
	for _, name := range Placements() {
		pl, err := NewPlacer(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(Config{
			Devices:   []DeviceSpec{{Platform: "Orin", Count: 2}},
			Placement: pl,
			Device:    serve.Config{SolverTimeScale: 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := f.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range sum.Devices {
			if ds.Placed == 0 {
				t.Errorf("%s left device %s idle", name, ds.Device)
			}
		}
		if name == "least-loaded" {
			a, b := sum.Devices[0].Placed, sum.Devices[1].Placed
			if a+b != len(tr) {
				t.Errorf("least-loaded placed %d+%d != %d", a, b, len(tr))
			}
			// Ties break deterministically toward device 0, so an exact
			// split is not expected — but neither device may be starved.
			if min := min(a, b); min < len(tr)/4 {
				t.Errorf("least-loaded starved a device on an identical pair: %d vs %d", a, b)
			}
		}
	}
	if _, err := NewPlacer("random"); err == nil {
		t.Error("NewPlacer accepted an unknown policy")
	}
}

// TestSharedCacheWarmsPlatformGroup verifies the headline cache property:
// with the default shared caches, a mix solved on one Orin serves every
// Orin (one miss per distinct mix across the whole group), while private
// caches re-solve per device.
func TestSharedCacheWarmsPlatformGroup(t *testing.T) {
	tr := defaultTrace(t)
	run := func(private bool) *Summary {
		f, err := New(Config{
			Devices:       []DeviceSpec{{Platform: "Orin", Count: 2}},
			Placement:     RoundRobin(),
			Device:        serve.Config{SolverTimeScale: 50},
			PrivateCaches: private,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := f.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	shared := run(false)
	private := run(true)
	if len(shared.Caches) != 1 || shared.Caches[0].Platform != "Orin" {
		t.Fatalf("shared cache view: %+v", shared.Caches)
	}
	if got, want := len(shared.Caches[0].Devices), 2; got != want {
		t.Errorf("cache group has %d devices, want %d", got, want)
	}
	if shared.Caches[0].Misses >= private.Caches[0].Misses {
		t.Errorf("sharing did not reduce misses: shared %d vs private %d",
			shared.Caches[0].Misses, private.Caches[0].Misses)
	}
	if shared.Caches[0].Hits == 0 {
		t.Error("shared cache shows no hits")
	}
	if shared.Caches[0].Entries > private.Caches[0].Entries {
		t.Errorf("shared cache has more entries (%d) than the private caches combined (%d)",
			shared.Caches[0].Entries, private.Caches[0].Entries)
	}
}

// TestFleetDeterminism: serving the same seeded trace on two fresh fleets
// — one fed a regenerated copy of the trace — must yield byte-identical
// fleet summaries under every placement policy, and warm re-serves must be
// identical to each other too.
func TestFleetDeterminism(t *testing.T) {
	for _, name := range Placements() {
		pl1, _ := NewPlacer(name)
		pl2, _ := NewPlacer(name)
		cfg1, cfg2 := threeDeviceConfig(), threeDeviceConfig()
		cfg1.Placement, cfg2.Placement = pl1, pl2
		f1, err := New(cfg1)
		if err != nil {
			t.Fatal(err)
		}
		f2, err := New(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		a, err := f1.Serve(defaultTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		b, err := f2.Serve(defaultTrace(t)) // regenerated trace, fresh fleet
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
			t.Errorf("%s: two fresh fleets diverged on the same trace", name)
		}
		// Warm re-serves reuse solved cache entries (so they differ from
		// the cold run in cache stats), but must equal each other exactly.
		c, err := f1.Serve(defaultTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		d, err := f2.Serve(defaultTrace(t))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, c), mustJSON(t, d)) {
			t.Errorf("%s: warm re-serves diverged", name)
		}
	}
}

// TestPlacementTieBreakPinned is the map-iteration-nondeterminism audit's
// regression test: on equal-load pools every built-in policy must break
// ties toward the lowest device Index — the device's stable pool ID — no
// matter what order the views arrive in. Reversed and shuffled view
// slices exercise exactly the ordering a dynamic pool (or a future
// map-backed view source) could produce.
func TestPlacementTieBreakPinned(t *testing.T) {
	equal := func(indices ...int) []DeviceView {
		views := make([]DeviceView, len(indices))
		for i, idx := range indices {
			views[i] = DeviceView{Index: idx, Name: "Orin/x", Platform: "Orin",
				FreeAtMs: 10, BacklogMs: 5, StandaloneMs: 2}
		}
		return views
	}
	req := serve.Request{Tenant: "alice", Network: "VGG19", ArrivalMs: 0}
	for _, name := range []string{"least-loaded", "affinity", "mix-aware"} {
		pl, err := NewPlacer(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, views := range [][]DeviceView{
			equal(0, 1, 2), equal(2, 1, 0), equal(1, 2, 0),
		} {
			if got := pl.Place(req, views); got != 0 {
				t.Errorf("%s: equal-load views %v placed on %d, want 0", name, views, got)
			}
		}
		// A strictly better device wins regardless of position.
		views := equal(2, 0, 1)
		views[0].BacklogMs = 0
		if got := pl.Place(req, views); got != 2 {
			t.Errorf("%s: best device at index 2 lost the tie-break audit: got %d", name, got)
		}
	}
	// Round-robin must cycle over view positions but return pool IDs.
	rr := RoundRobin()
	views := equal(3, 5, 7)
	want := []int{3, 5, 7, 3}
	for i, w := range want {
		if got := rr.Place(req, views); got != w {
			t.Errorf("round-robin call %d = %d, want %d", i, got, w)
		}
	}
}

// TestEqualLoadPoolDeterminism serves the demo trace twice on a pool of
// identical devices — the equal-load case where tie-breaks decide every
// placement — and requires byte-identical summaries.
func TestEqualLoadPoolDeterminism(t *testing.T) {
	for _, name := range []string{"least-loaded", "affinity", "mix-aware"} {
		run := func() *Summary {
			pl, _ := NewPlacer(name)
			f, err := New(Config{
				Devices:   []DeviceSpec{{Platform: "Orin", Count: 3}},
				Placement: pl,
				Device:    serve.Config{SolverTimeScale: 50},
			})
			if err != nil {
				t.Fatal(err)
			}
			sum, err := f.Serve(defaultTrace(t))
			if err != nil {
				t.Fatal(err)
			}
			return sum
		}
		if !bytes.Equal(mustJSON(t, run()), mustJSON(t, run())) {
			t.Errorf("%s: equal-load pool runs diverged", name)
		}
	}
}

// TestMixAwarePlacement pins the cross-device mix-forming signal: the
// placer must weigh the predicted co-run cost (DeviceView.MixFitMs) on
// top of the start estimate — steering an arrival toward the device whose
// pending queue it contends least with, even when that device carries the
// deeper backlog — and fall back to the affinity signal when the fit is
// unknown. An end-to-end serve checks the fleet actually feeds the signal
// (an idle device's fit is the standalone estimate).
func TestMixAwarePlacement(t *testing.T) {
	pl, err := NewPlacer("mix-aware")
	if err != nil {
		t.Fatal(err)
	}
	req := serve.Request{Tenant: "alice", Network: "SqueezeNet", ArrivalMs: 0}
	views := []DeviceView{
		// Lighter backlog, but the model predicts a bad co-run.
		{Index: 0, Name: "Orin/0", Platform: "Orin", BacklogMs: 1, StandaloneMs: 2, MixFitMs: 8},
		// Deeper backlog, predicted to pair well.
		{Index: 1, Name: "Orin/1", Platform: "Orin", BacklogMs: 2, StandaloneMs: 2, MixFitMs: 1},
	}
	if got := pl.Place(req, views); got != 1 {
		t.Errorf("mix-aware placed on %d, want 1 (best predicted co-run beats lighter backlog)", got)
	}
	if ll := LeastLoaded().Place(req, views); ll != 0 {
		t.Fatalf("fixture broken: least-loaded should prefer device 0, got %d", ll)
	}
	// Unknown fits fall back to the standalone (affinity) signal.
	views[0].MixFitMs, views[1].MixFitMs = 0, 0
	if got := pl.Place(req, views); got != 0 {
		t.Errorf("zero fits did not fall back to the affinity signal: placed on %d", got)
	}

	f, err := New(Config{
		Devices:   []DeviceSpec{{Platform: "Orin", Count: 2}},
		Placement: MixAware(),
		Device:    serve.Config{SolverTimeScale: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.Serve(defaultTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Placement != "mix-aware" {
		t.Errorf("summary placement %q", sum.Placement)
	}
	if sum.Total.Offered != len(defaultTrace(t)) {
		t.Errorf("offered %d != trace %d", sum.Total.Offered, len(defaultTrace(t)))
	}
	used := 0
	for _, ds := range sum.Devices {
		if ds.Placed > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("mix-aware used %d of 2 devices on two-tenant traffic", used)
	}
}

// TestDynamicMembership exercises the elastic-pool protocol: AddDevice
// naming and cache registration, Drain excluding a device from placement
// while it finishes queued work, and Remove requiring a drained-dry
// device.
func TestDynamicMembership(t *testing.T) {
	f, err := New(Config{Devices: []DeviceSpec{{Platform: "Orin"}}, Device: serve.Config{SolverTimeScale: 50}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.AddDevice("Orin")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "Orin/1" {
		t.Errorf("added device named %q, want Orin/1", d.Name())
	}
	if x, err := f.AddDevice("Xavier"); err != nil || x.Name() != "Xavier/0" {
		t.Errorf("AddDevice(Xavier) = %v, %v", x, err)
	}
	if _, err := f.AddDevice("Exynos"); err == nil {
		t.Error("AddDevice accepted an unknown platform")
	}
	if got := f.Pool(); got != "Orin+Orin+Xavier" {
		t.Errorf("pool = %q", got)
	}
	if f.Cache("Orin") == nil || f.Cache("Xavier") == nil {
		t.Error("platform caches not registered on AddDevice")
	}

	// Queue a request on device 1, then drain it: no new placements land
	// there, but its queued work still steps.
	req := serve.Request{Tenant: "alice", Network: "VGG19", ArrivalMs: 0, SLOMs: 10}
	if rejected, err := d.Offer(req); err != nil || rejected {
		t.Fatalf("offer: rejected=%v err=%v", rejected, err)
	}
	if err := f.Drain(1); err != nil {
		t.Fatal(err)
	}
	if !f.Draining(1) {
		t.Error("device 1 not draining")
	}
	if err := f.Remove(1); err == nil {
		t.Error("Remove succeeded with work still queued")
	}
	for i := 0; i < 50; i++ {
		req.ArrivalMs = float64(i)
		if j, _, err := f.Offer(req); err != nil {
			t.Fatal(err)
		} else if j == 1 {
			t.Fatal("placement chose a draining device")
		}
	}
	if !f.Removable(1) {
		if err := f.Step(1); err != nil { // drain the queued round
			t.Fatal(err)
		}
	}
	if !f.Removable(1) {
		t.Fatal("drained device with empty queue not removable")
	}
	if err := f.Remove(1); err != nil {
		t.Fatal(err)
	}
	if di, _ := f.NextRound(); di == 1 {
		t.Error("removed device offered for stepping")
	}

	// The last placeable device cannot be drained.
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(2); err == nil {
		t.Error("drained the last placeable device")
	}
	// Rewind restores the whole pool to active.
	f.Rewind()
	if f.Draining(0) || !f.placeable(1) {
		t.Error("Rewind did not clear drain/removal flags")
	}
}

func mustPlatform(t *testing.T, name string) *soc.Platform {
	t.Helper()
	p, ok := soc.PlatformByName(name)
	if !ok {
		t.Fatalf("unknown platform %q", name)
	}
	return p
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeRejectsNonFiniteArrivals: a NaN or +Inf arrival time is an
// error. Unchecked, Fleet.Serve returned a summary that offered one
// request of two: the second never reached a terminal state.
func TestServeRejectsNonFiniteArrivals(t *testing.T) {
	f, err := New(threeDeviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		tr := serve.Trace{
			{ID: 0, Tenant: "alice", Network: "VGG19", ArrivalMs: 0, SLOMs: 10},
			{ID: 1, Tenant: "alice", Network: "VGG19", ArrivalMs: at, SLOMs: 10},
		}
		if sum, err := f.Serve(tr); err == nil {
			t.Errorf("arrival %g: Fleet.Serve accepted the trace (offered %d)", at, sum.Total.Offered)
		}
	}
}

// stickyPlacer is a test placer shaped like the control plane's sticky
// table: a tenant's first request is placed by the affinity score and
// every later one follows it, and an assignment to a device missing from
// the views is repaired. calls counts Place invocations.
type stickyPlacer struct {
	byTenant map[string]int
	calls    int
}

func (p *stickyPlacer) Name() string    { return "sticky" }
func (p *stickyPlacer) LoadAware() bool { return true }
func (p *stickyPlacer) Reset()          { p.byTenant = map[string]int{} }
func (p *stickyPlacer) Place(req serve.Request, devices []DeviceView) int {
	p.calls++
	if di, ok := p.byTenant[req.Tenant]; ok {
		for _, v := range devices {
			if v.Index == di {
				return di
			}
		}
	}
	best := Affinity().Place(req, devices)
	p.byTenant[req.Tenant] = best
	return best
}
func (p *stickyPlacer) Assigned(tenant string) (int, bool) {
	di, ok := p.byTenant[tenant]
	return di, ok
}

// placerOnly hides every capability of the wrapped placer but Placer
// itself, so the fleet builds views for every arrival.
type placerOnly struct{ Placer }

// TestAssignedFastPathMatchesViews: routing an assigned tenant's arrival
// without building views changes nothing observable. One trace is served
// through a sticky placer that exposes Assigned and through the same
// placer with the capability hidden; midway, the device holding alice is
// drained, so its tenants are repaired through views; a tenant sending an
// unknown network is placed and rejected on both paths. Every tenant's
// first request arrives while the whole pool is placeable, so both paths
// characterize every network on every device and even the per-device
// prepare counters agree.
func TestAssignedFastPathMatchesViews(t *testing.T) {
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 140, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
		{Name: "carol", Network: "ResNet50", RateRPS: 100, SLOMs: 15},
		{Name: "dave", Network: "MobileNet", RateRPS: 100, SLOMs: 8},
	}, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range []float64{5, 700} {
		tr = append(tr, serve.Request{ID: len(tr) + i, Tenant: "ghost", Network: "NoSuchNet", ArrivalMs: at, SLOMs: 10})
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].ArrivalMs < tr[j].ArrivalMs })
	const drainAtMs = 500

	run := func(expose bool) (sticky *stickyPlacer, sum, completions, events, metrics []byte) {
		t.Helper()
		sticky = &stickyPlacer{byTenant: map[string]int{}}
		var pl Placer = sticky
		if !expose {
			pl = placerOnly{sticky}
		}
		tracer := obs.NewTracer()
		f, err := New(Config{
			Devices:   []DeviceSpec{{Platform: "Orin", Count: 2}, {Platform: "Xavier"}},
			Placement: pl,
			Device:    serve.Config{SolverTimeScale: 50, Tracer: tracer},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The devices keep no logs: capture each one's completion sequence
		// through a subscriber.
		devCompletions := make([][]serve.Completion, len(f.Devices()))
		for i, d := range f.Devices() {
			d.(*serve.Runtime).Subscribe(func(c serve.Completion) {
				devCompletions[i] = append(devCompletions[i], c)
			})
		}
		next, drained := 0, false
		for {
			di, tDev := f.NextRound()
			if next < len(tr) && tr[next].ArrivalMs <= tDev {
				if !drained && tr[next].ArrivalMs >= drainAtMs {
					victim, ok := sticky.Assigned("alice")
					if !ok {
						t.Fatal("alice unassigned at the drain")
					}
					if err := f.Drain(victim); err != nil {
						t.Fatal(err)
					}
					drained = true
				}
				if _, _, err := f.Offer(tr[next]); err != nil {
					t.Fatal(err)
				}
				next++
				continue
			}
			if di < 0 || f.Devices()[di].QueueDepth() == 0 {
				break
			}
			if err := f.Step(di); err != nil {
				t.Fatal(err)
			}
		}
		reg := obs.NewRegistry()
		f.FillMetrics(reg)
		var ev bytes.Buffer
		if err := tracer.WriteJSONL(&ev); err != nil {
			t.Fatal(err)
		}
		return sticky, mustJSON(t, f.Summarize()), mustJSON(t, devCompletions), ev.Bytes(), mustJSON(t, reg.Snapshot())
	}
	fast, sum1, comp1, ev1, met1 := run(true)
	full, sum2, comp2, ev2, met2 := run(false)
	if !bytes.Equal(sum1, sum2) {
		t.Errorf("summaries differ:\nfast %s\nfull %s", sum1, sum2)
	}
	if !bytes.Equal(comp1, comp2) {
		t.Error("device completions differ")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("trace events differ")
	}
	if !bytes.Equal(met1, met2) {
		t.Errorf("metrics differ:\nfast %s\nfull %s", met1, met2)
	}
	// The hidden run consults Place for every arrival; the fast run only
	// for the five first sightings and the drained device's repairs.
	if full.calls != len(tr) {
		t.Errorf("views path placed %d of %d arrivals", full.calls, len(tr))
	}
	if fast.calls <= 5 || fast.calls >= full.calls {
		t.Errorf("fast path placed %d arrivals through views, want more than 5 (repairs) and fewer than %d", fast.calls, full.calls)
	}
	for _, e := range bytes.Split(ev1, []byte("\n")) {
		if bytes.Contains(e, []byte(`"tenant":"ghost"`)) && bytes.Contains(e, []byte("unknown-network")) {
			return
		}
	}
	t.Error("the unknown-network request was never rejected")
}
