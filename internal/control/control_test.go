package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// demoConfig is the canonical controlled-fleet configuration: one Orin
// that may grow through a Xavier and an SD865 — the repository's
// heterogeneous rack — up to three devices.
func demoConfig() Config {
	return Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    3,
		GrowPlatforms: []string{"Xavier", "SD865"},
	}
}

func burstTrace(t *testing.T, seed int64) serve.Trace {
	t.Helper()
	tr, err := DemoBurstTrace(seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	type configCase struct {
		name  string
		cfg   Config
		field string // when set, the error must name it
	}
	cases := []configCase{
		{"no devices", Config{}, ""},
		{"inverted watermarks", Config{
			Fleet:           fleet.Config{Devices: []fleet.DeviceSpec{{Platform: "Orin"}}},
			HighWatermarkMs: 2, LowWatermarkMs: 10,
		}, ""},
		{"min above max", Config{
			Fleet:      fleet.Config{Devices: []fleet.DeviceSpec{{Platform: "Orin"}}},
			MinDevices: 5, MaxDevices: 2,
		}, ""},
	}
	// Every float knob rejects NaN and +Inf by name. Defaulting replaces
	// only values <= 0, so both survive it and must be caught afterwards.
	floats := []struct {
		field string
		set   func(*Config, float64)
	}{
		{"TickMs", func(c *Config, v float64) { c.TickMs = v }},
		{"HighWatermarkMs", func(c *Config, v float64) { c.HighWatermarkMs = v }},
		{"LowWatermarkMs", func(c *Config, v float64) { c.LowWatermarkMs = v }},
		{"GrowUtilizationPct", func(c *Config, v float64) { c.GrowUtilizationPct = v }},
		{"ShrinkUtilizationPct", func(c *Config, v float64) { c.ShrinkUtilizationPct = v }},
		{"PressureP99Factor", func(c *Config, v float64) { c.PressureP99Factor = v }},
		{"PressureViolationRate", func(c *Config, v float64) { c.PressureViolationRate = v }},
		{"MixSpreadGBps", func(c *Config, v float64) { c.MixSpreadGBps = v }},
	}
	for _, f := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			cfg := demoConfig()
			f.set(&cfg, v)
			cases = append(cases, configCase{fmt.Sprintf("%s %g", f.field, v), cfg, f.field})
		}
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
	// A negative knob still means "use the default".
	neg := demoConfig()
	neg.TickMs, neg.HighWatermarkMs, neg.MixSpreadGBps = -1, -1, -1
	if c, err := New(neg); err != nil {
		t.Errorf("negative knobs rejected: %v", err)
	} else if got := c.Config(); got.TickMs != DefaultTickMs || got.HighWatermarkMs != DefaultHighWatermarkMs || got.MixSpreadGBps != DefaultMixSpreadGBps {
		t.Errorf("negative knobs not defaulted: %+v", got)
	}
	// Defaults resolve.
	c, err := New(demoConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := c.Config()
	if got.TickMs != DefaultTickMs || got.MinDevices != 1 || got.SLOWindow != DefaultSLOWindow || got.MinWindow != DefaultMinWindow {
		t.Errorf("defaults not applied: %+v", got)
	}
	// A window smaller than the default fill level defaults the fill level
	// down to it: a window of 4 must still be judged once it holds 4.
	small := demoConfig()
	small.SLOWindow = 4
	if c, err := New(small); err != nil {
		t.Errorf("SLOWindow 4 rejected: %v", err)
	} else if got := c.Config().MinWindow; got != 4 {
		t.Errorf("SLOWindow 4 resolved MinWindow %d, want 4", got)
	}
	// An explicit fill level the window can never reach is an error that
	// names both fields.
	small.MinWindow = 8
	if _, err := New(small); err == nil {
		t.Error("MinWindow 8 over SLOWindow 4 accepted")
	} else if !strings.Contains(err.Error(), "MinWindow") || !strings.Contains(err.Error(), "SLOWindow") {
		t.Errorf("error %q does not name MinWindow and SLOWindow", err)
	}
}

// TestControllerDeterminism: two fresh controllers serving regenerated
// copies of the same seeded trace — autoscaling, migration and cache
// seeding all enabled — must produce byte-identical summaries, decision
// logs included; and a repeated Serve on one controller must equal a
// fresh controller's run (each Serve builds a fresh fleet).
func TestControllerDeterminism(t *testing.T) {
	c1, err := New(demoConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(demoConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := c1.Serve(burstTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.Serve(burstTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Error("two fresh controllers diverged on the same trace")
	}
	c, err := c1.Serve(burstTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, c)) {
		t.Error("repeated Serve on one controller diverged from its first run")
	}
}

// TestAutoscalerGrowsAndShrinks: on the bursty trace the pool must grow
// beyond its initial size during the burst and drain back to the minimum
// afterwards, with the scale events telling that story in order.
func TestAutoscalerGrowsAndShrinks(t *testing.T) {
	c, err := New(demoConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Serve(burstTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sum.PeakDevices <= 1 {
		t.Errorf("pool never grew: peak %d", sum.PeakDevices)
	}
	if sum.FinalDevices != 1 {
		t.Errorf("pool did not shrink back: final %d devices", sum.FinalDevices)
	}
	var grows, drains, removes int
	var growMs, drainMs float64
	for _, e := range sum.Scale {
		switch e.Action {
		case "grow":
			grows++
			if grows == 1 {
				growMs = e.AtMs
			}
		case "drain":
			drains++
			if drains == 1 {
				drainMs = e.AtMs
			}
		case "remove":
			removes++
		}
	}
	if grows == 0 || drains == 0 || removes == 0 {
		t.Fatalf("scale events incomplete: %d grows, %d drains, %d removes", grows, drains, removes)
	}
	if drains != removes {
		t.Errorf("%d drains but %d removes: a drained device never ran dry", drains, removes)
	}
	if growMs <= 600 || growMs >= 1100 {
		t.Errorf("first grow at %.0f ms, want inside the burst window (600-1100)", growMs)
	}
	if drainMs <= growMs {
		t.Errorf("first drain at %.0f ms precedes first grow at %.0f ms", drainMs, growMs)
	}
	// Devices the autoscaler added must register with shared caches and
	// see hits (the mixes were seeded or solved by the Orin group).
	if sum.SeededEntries == 0 {
		t.Error("no cache entries were transferred to the joining platforms")
	}
	// Every offered request is accounted for.
	if got, want := sum.Fleet.Total.Offered, len(burstTrace(t, 1)); got != want {
		t.Errorf("offered %d != trace %d", got, want)
	}
	// Device-time is bounded by pool-size x duration on both sides.
	if sum.DeviceMs <= sum.Fleet.DurationMs || sum.DeviceMs >= 3*sum.Fleet.DurationMs {
		t.Errorf("device-time %.0f ms outside (duration, 3x duration) = (%.0f, %.0f)",
			sum.DeviceMs, sum.Fleet.DurationMs, 3*sum.Fleet.DurationMs)
	}
}

// TestControlledBeatsStatic is the PR's acceptance demo: on the bursty
// trace the controlled fleet must beat a static fleet of its own maximum
// size on at least two of {p99 latency, SLO violations, device-time},
// device-time being the headline elasticity win.
func TestControlledBeatsStatic(t *testing.T) {
	tr := burstTrace(t, 1)
	rows := compare(t, demoConfig(), tr)
	static, ctrl := rows[0], rows[1]
	p99 := ctrl.Total.P99Ms < static.Total.P99Ms
	viol := ctrl.Total.Violations < static.Total.Violations
	dms := ctrl.DeviceMs < static.DeviceMs
	wins := 0
	for _, won := range []bool{p99, viol, dms} {
		if won {
			wins++
		}
	}
	t.Logf("controlled: p99 %.2f ms, %d violations, %.0f device-ms | %s: p99 %.2f ms, %d violations, %.0f device-ms",
		ctrl.Total.P99Ms, ctrl.Total.Violations, ctrl.DeviceMs,
		static.Leg, static.Total.P99Ms, static.Total.Violations, static.DeviceMs)
	if wins < 2 {
		t.Errorf("controlled fleet wins only %d of 3 metrics (p99 %v, violations %v, device-time %v)",
			wins, p99, viol, dms)
	}
	if !dms || ctrl.DeviceMsSavedPct <= 0 {
		t.Errorf("controlled fleet did not even win device-time (%+.1f%% saved)", ctrl.DeviceMsSavedPct)
	}
	// Same traffic on both sides.
	if ctrl.Total.Offered != static.Total.Offered || ctrl.Total.Offered != len(tr) {
		t.Errorf("offered mismatch: controlled %d, static %d, trace %d",
			ctrl.Total.Offered, static.Total.Offered, len(tr))
	}
	// The static pool is the controlled fleet's maximum shape, on for the
	// whole run.
	sf := static.Summary.(*fleet.Summary)
	if got, want := len(sf.Devices), 3; got != want || static.PeakDevices != want {
		t.Errorf("static pool has %d devices (peak %d), want %d", got, static.PeakDevices, want)
	}
	if want := float64(len(sf.Devices)) * sf.DurationMs; static.DeviceMs != want {
		t.Errorf("static device-time %v, want pool size x duration %v", static.DeviceMs, want)
	}
}

// compare serves tr on cfg's comparison legs (static baseline under
// least-loaded placement, then the controlled fleet).
func compare(t *testing.T, cfg Config, tr serve.Trace) []serve.Row {
	t.Helper()
	legs, err := Legs(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := serve.Compare(tr, legs...)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Leg != "static:least-loaded" || rows[1].Leg != "controlled:sticky" {
		t.Fatalf("legs %q, %q", rows[0].Leg, rows[1].Leg)
	}
	return rows
}

// TestStickyPlacementLocality: without SLO pressure nothing migrates and
// each tenant's traffic lands on exactly one device — the locality that
// keeps the schedule caches hot.
func TestStickyPlacementLocality(t *testing.T) {
	tr, err := serve.Generate(demoTenants(20), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := demoConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Migrations) != 0 {
		t.Errorf("%d migrations on pressure-free traffic", len(sum.Migrations))
	}
	if sum.PeakDevices != 1 {
		t.Errorf("pool grew to %d devices on pressure-free traffic", sum.PeakDevices)
	}
	devicesWithTraffic := 0
	for _, ds := range sum.Fleet.Devices {
		if ds.Placed > 0 {
			devicesWithTraffic++
		}
	}
	if devicesWithTraffic != 1 {
		t.Errorf("pressure-free traffic spread over %d devices", devicesWithTraffic)
	}
}

// TestNoMigrationPinsTenants: with migration disabled the decision log
// stays empty even under the burst (drain-forced moves excepted — so the
// pool is held at its initial size too).
func TestNoMigrationPinsTenants(t *testing.T) {
	cfg := demoConfig()
	cfg.NoMigration = true
	cfg.MaxDevices = 1
	cfg.MinDevices = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Serve(burstTrace(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Migrations) != 0 {
		t.Errorf("%d migrations with NoMigration set", len(sum.Migrations))
	}
	if len(sum.Scale) != 0 {
		t.Errorf("%d scale events with a pinned pool", len(sum.Scale))
	}
	if sum.FinalDevices != 1 || sum.PeakDevices != 1 {
		t.Errorf("pinned pool changed size: peak %d, final %d", sum.PeakDevices, sum.FinalDevices)
	}
}

// TestMergeTraces: merged traces are arrival-ordered with renumbered IDs.
func TestMergeTraces(t *testing.T) {
	a := serve.Trace{{Tenant: "x", Network: "VGG19", ArrivalMs: 10}, {Tenant: "x", Network: "VGG19", ArrivalMs: 30}}
	b := serve.Trace{{Tenant: "y", Network: "VGG19", ArrivalMs: 20}}
	m := MergeTraces(a, ShiftTrace(b, 5))
	if len(m) != 3 {
		t.Fatalf("merged %d requests", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].ArrivalMs < m[i-1].ArrivalMs {
			t.Errorf("merge not sorted at %d", i)
		}
	}
	for i, r := range m {
		if r.ID != i {
			t.Errorf("ID %d at position %d", r.ID, i)
		}
	}
	if m[1].Tenant != "y" || m[1].ArrivalMs != 25 {
		t.Errorf("shifted arrival wrong: %+v", m[1])
	}
}

// TestAdaptiveMixSwitches: with AdaptiveMix on and mixed-demand tenants
// (VGG19 at ~104 GB/s vs ResNet18 at ~71 GB/s on Orin), the controller
// must switch at least one device to demand-balance when the pending
// demand spread crosses the threshold, log the switch as a "mix" scale
// event, and stay byte-identical rerun to rerun. The default
// configuration (AdaptiveMix off) must emit no mix events.
func TestAdaptiveMixSwitches(t *testing.T) {
	specs := []serve.TenantSpec{
		{Name: "heavy-a", Network: "VGG19", RateRPS: 300, SLOMs: 10},
		{Name: "heavy-b", Network: "VGG19", RateRPS: 300, SLOMs: 10},
		{Name: "light-a", Network: "ResNet18", RateRPS: 300, SLOMs: 6},
		{Name: "light-b", Network: "ResNet18", RateRPS: 300, SLOMs: 6},
	}
	tr, err := serve.Generate(specs, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := demoConfig()
	cfg.AdaptiveMix = true
	serveOnce := func() *Summary {
		t.Helper()
		ctrl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := ctrl.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	sum := serveOnce()
	mixEvents := 0
	for _, e := range sum.Scale {
		if e.Action != "mix" {
			continue
		}
		mixEvents++
		if e.Mix != serve.MixDemandBalance && e.Mix != serve.MixFIFO {
			t.Errorf("mix event switched to unknown policy %q", e.Mix)
		}
		if e.Device == "" {
			t.Error("mix event without a device")
		}
	}
	if mixEvents == 0 {
		t.Fatal("adaptive mix produced no mix events on a mixed-demand trace")
	}
	if !bytes.Equal(mustJSON(t, sum), mustJSON(t, serveOnce())) {
		t.Error("adaptive-mix runs diverged; the mix hook broke determinism")
	}

	// The hook must stay silent when disabled.
	cfg.AdaptiveMix = false
	for _, e := range serveOnce().Scale {
		if e.Action == "mix" {
			t.Fatalf("mix event %+v emitted with AdaptiveMix off", e)
		}
	}

	// A per-spec mix override is the device's base policy: when pressure
	// subsides the hook must restore slo-aware, never the fleet default.
	cfg.AdaptiveMix = true
	cfg.Fleet.Devices = []fleet.DeviceSpec{{Platform: "Orin", MixPolicy: serve.MixSLOAware}}
	for _, e := range serveOnce().Scale {
		if e.Action == "mix" && e.Mix != serve.MixDemandBalance && e.Mix != serve.MixSLOAware {
			t.Errorf("mix event reverted device to %q, clobbering its slo-aware override", e.Mix)
		}
	}
}

// TestAdaptMixRestoresOnDrain is the drain-restore regression test: a
// device the adaptive hook switched to demand-balance that then starts
// draining must get its configured policy back immediately — with a
// logged "mix" event — not keep the adaptive policy for its whole drain.
// Before the fix, adaptMix skipped draining devices entirely and the
// switch silently outlived the pressure signal that chose it.
func TestAdaptMixRestoresOnDrain(t *testing.T) {
	cfg := Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin", Count: 2}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		AdaptiveMix: true,
	}.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First visit records the configured base policies (fifo) with the
	// queues empty: no switches.
	if err := r.adaptMix(0); err != nil {
		t.Fatal(err)
	}
	if len(r.events) != 0 {
		t.Fatalf("idle tick produced events: %+v", r.events)
	}
	// Build a wide demand spread on device 0: VGG19 vs SqueezeNet spans
	// most of the Orin demand range.
	d0 := r.fleet.Devices()[0]
	for i, net := range []string{"VGG19", "SqueezeNet", "VGG19", "SqueezeNet"} {
		if _, err := d0.Offer(serve.Request{ID: i, Tenant: "t", Network: net}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.adaptMix(25); err != nil {
		t.Fatal(err)
	}
	if got := d0.MixPolicy(); got != serve.MixDemandBalance {
		t.Fatalf("spread did not switch device 0: mix policy %q", got)
	}
	// The device drains; the next tick must restore fifo and log it.
	if err := r.fleet.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := r.adaptMix(50); err != nil {
		t.Fatal(err)
	}
	if got := d0.MixPolicy(); got != serve.MixFIFO {
		t.Errorf("draining device kept adaptive policy %q, want restored %q", got, serve.MixFIFO)
	}
	last := r.events[len(r.events)-1]
	if last.Action != "mix" || last.Mix != serve.MixFIFO || last.AtMs != 50 {
		t.Errorf("restore not logged: last event %+v", last)
	}
	// A stable draining device must not be re-switched every tick.
	n := len(r.events)
	if err := r.adaptMix(75); err != nil {
		t.Fatal(err)
	}
	if len(r.events) != n {
		t.Errorf("draining device produced further mix events: %+v", r.events[n:])
	}
}

// TestAdaptiveMixEscalatesToContentionAware: with a scoring budget (the
// template's ScoreBeam > 0) the spread-triggered switch must pick the
// contention-aware policy instead of demand-balance, and restore the base
// policy once the spread subsides.
func TestAdaptiveMixEscalatesToContentionAware(t *testing.T) {
	cfg := Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin", Count: 2}},
			Device:  serve.Config{ScoreBeam: 4, SolverTimeScale: 50},
		},
		AdaptiveMix: true,
	}.withDefaults()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.adaptMix(0); err != nil {
		t.Fatal(err)
	}
	d0 := r.fleet.Devices()[0]
	for i, net := range []string{"VGG19", "SqueezeNet"} {
		if _, err := d0.Offer(serve.Request{ID: i, Tenant: "t", Network: net}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.adaptMix(25); err != nil {
		t.Fatal(err)
	}
	if got := d0.MixPolicy(); got != serve.MixContentionAware {
		t.Errorf("scoring budget did not escalate: mix policy %q, want %q", got, serve.MixContentionAware)
	}
	last := r.events[len(r.events)-1]
	if last.Action != "mix" || last.Mix != serve.MixContentionAware {
		t.Errorf("escalation not logged: last event %+v", last)
	}
	// Drain the pressure (dispatch the queue) and confirm the restore.
	for d0.QueueDepth() > 0 {
		if err := d0.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.adaptMix(50); err != nil {
		t.Fatal(err)
	}
	if got := d0.MixPolicy(); got != serve.MixFIFO {
		t.Errorf("subsided spread did not restore fifo: mix policy %q", got)
	}
}

// TestAdaptiveMixNeverDowngradesContentionAware: a device configured with
// the contention-aware policy must not be switched to the scalar
// demand-balance heuristic by spread pressure, with a scoring budget (the
// template's ScoreBeam 16) or without one (ScoreBeam 0).
func TestAdaptiveMixNeverDowngradesContentionAware(t *testing.T) {
	for _, beam := range []int{16, 0} {
		cfg := Config{
			Fleet: fleet.Config{
				Devices: []fleet.DeviceSpec{{Platform: "Orin", Count: 2, MixPolicy: serve.MixContentionAware}},
				Device:  serve.Config{ScoreBeam: beam, SolverTimeScale: 50},
			},
			AdaptiveMix: true,
		}.withDefaults()
		r, err := newRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.adaptMix(0); err != nil {
			t.Fatal(err)
		}
		d0 := r.fleet.Devices()[0]
		for i, net := range []string{"VGG19", "SqueezeNet"} {
			if _, err := d0.Offer(serve.Request{ID: i, Tenant: "t", Network: net}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.adaptMix(25); err != nil {
			t.Fatal(err)
		}
		if got := d0.MixPolicy(); got != serve.MixContentionAware {
			t.Errorf("beam %d: pressure downgraded a contention-aware device to %q", beam, got)
		}
		for _, e := range r.events {
			if e.Action == "mix" {
				t.Errorf("beam %d: unexpected mix event on a contention-aware-configured device: %+v", beam, e)
			}
		}
	}
}

// TestServeRejectsNonFiniteArrivals: a NaN or +Inf arrival time is an
// error at Start, so Serve and the incremental driver both reject it.
// Unchecked, the event loop never terminated.
func TestServeRejectsNonFiniteArrivals(t *testing.T) {
	c, err := New(demoConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		tr := serve.Trace{
			{ID: 0, Tenant: "cam-a", Network: "VGG19", ArrivalMs: 0, SLOMs: 10},
			{ID: 1, Tenant: "cam-a", Network: "VGG19", ArrivalMs: at, SLOMs: 10},
		}
		if _, err := c.Start(tr); err == nil {
			t.Errorf("arrival %g: Controller.Start accepted the trace", at)
		}
		if _, err := c.Serve(tr); err == nil {
			t.Errorf("arrival %g: Controller.Serve accepted the trace", at)
		}
	}
}
