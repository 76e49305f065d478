package control

import (
	"bytes"
	"strings"
	"testing"

	"haxconn/internal/obs"
)

// TestControlTracingNoPerturbation: tracing a controlled run must not
// change a byte of its summary, and the trace must mirror the decision
// log exactly — one scale event per log entry, one migrate event per
// migration, one pool counter sample per tick.
func TestControlTracingNoPerturbation(t *testing.T) {
	tr := burstTrace(t, 1)
	run := func(tracer *obs.Tracer) (*Summary, []byte) {
		t.Helper()
		cfg := demoConfig()
		cfg.Fleet.Device.Tracer = tracer
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := c.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return sum, mustJSON(t, sum)
	}
	_, plain := run(nil)
	tracer := obs.NewTracer()
	sum, traced := run(tracer)
	if !bytes.Equal(plain, traced) {
		t.Errorf("tracing changed the control summary:\n%s\nvs\n%s", plain, traced)
	}
	counts := tracer.CountByKind()
	if got, want := counts[obs.KindScale], len(sum.Scale); got != want {
		t.Errorf("scale events = %d, want one per decision-log entry (%d)", got, want)
	}
	if got, want := counts[obs.KindMigrate], len(sum.Migrations); got != want {
		t.Errorf("migrate events = %d, want one per migration (%d)", got, want)
	}
	if got, want := counts[obs.KindPool], len(sum.Timeline); got != want {
		t.Errorf("pool counter events = %d, want one per tick sample (%d)", got, want)
	}
	if counts[obs.KindScale] == 0 {
		t.Error("burst demo produced no scaling decisions; trace mirror check is vacuous")
	}
	if got, want := counts[obs.KindPlace], len(tr); got != want {
		t.Errorf("place events = %d, want one per request (%d)", got, want)
	}
}

// TestControlAuditNoPerturbation: the reaction-lag audit must be strictly
// observational — byte-identical summaries (including every ScaleEvent's
// ReactionTicks, which are computed unconditionally) with and without an
// audit attached.
func TestControlAuditNoPerturbation(t *testing.T) {
	tr := burstTrace(t, 1)
	run := func(audit *obs.Audit) []byte {
		t.Helper()
		cfg := demoConfig()
		cfg.Fleet.Device.Audit = audit
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := c.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, sum)
	}
	plain := run(nil)
	audit := obs.NewAudit()
	if got := run(audit); !bytes.Equal(plain, got) {
		t.Errorf("auditing changed the control summary:\n%s\nvs\n%s", plain, got)
	}
	if audit.Len() == 0 {
		t.Fatal("burst demo opened no reaction windows; no-perturbation check is vacuous")
	}
}

// TestControlReactionTicks: the burst demo must trip at least one
// pressure window, every grow inside a resolved window must report a
// positive reaction lag, non-grow decisions must report zero, and the
// audit's control/scale aggregate must count one pair per resolved
// window with a non-positive bias (clear never precedes trip).
func TestControlReactionTicks(t *testing.T) {
	tr := burstTrace(t, 1)
	cfg := demoConfig()
	cfg.Fleet.Device.Audit = obs.NewAudit()
	cfg.Fleet.Device.Tracer = obs.NewTracer()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	grows, lagged := 0, 0
	for _, e := range sum.Scale {
		if e.Action != "grow" {
			if e.ReactionTicks != 0 {
				t.Errorf("%s decision at %.0f ms has ReactionTicks %d, want 0", e.Action, e.AtMs, e.ReactionTicks)
			}
			continue
		}
		grows++
		switch {
		case e.ReactionTicks > 0:
			lagged++
		case e.ReactionTicks == 0:
			t.Errorf("grow at %.0f ms has ReactionTicks 0: grows happen only inside a window", e.AtMs)
		}
	}
	if grows == 0 || lagged == 0 {
		t.Fatalf("burst demo produced %d grows, %d with resolved lag; reaction-lag check is vacuous", grows, lagged)
	}

	windows := 0
	for _, e := range cfg.Fleet.Device.Tracer.Events() {
		if e.Kind != obs.KindAudit || e.Detail != "scale-lag" {
			continue
		}
		windows++
		if lag := e.Metrics["lag_ticks"]; lag >= 0 {
			if e.Metrics["clear_ms"] < e.Metrics["trip_ms"] {
				t.Errorf("scale-lag window clears at %.0f before tripping at %.0f", e.Metrics["clear_ms"], e.Metrics["trip_ms"])
			}
			if lag < 1 {
				t.Errorf("resolved scale-lag window with lag %v ticks, want >= 1", lag)
			}
		}
	}
	if windows == 0 {
		t.Fatal("no scale-lag events for a demo that grew")
	}
	for _, s := range cfg.Fleet.Device.Audit.Snapshot() {
		if s.Layer != "control" {
			continue
		}
		if s.Scope != "scale" || s.Key != "reaction-lag" {
			t.Errorf("unexpected control aggregate %s/%s", s.Scope, s.Key)
			continue
		}
		if s.Count == 0 || s.Count > windows {
			t.Errorf("reaction-lag pairs = %d, want within (0, %d]", s.Count, windows)
		}
		// The pair is (trip, clear): bias = mean(trip - clear) <= 0.
		if s.BiasMs > 0 {
			t.Errorf("reaction-lag bias %.2f ms > 0: a window cleared before it tripped", s.BiasMs)
		}
	}
}

// TestControlCompareTracesControlledLegOnly: in compare mode only the
// controlled leg may write to the trace or the registry — the static
// baseline rebuilds identically named devices, which would overlap on the
// same tracks and metric names.
func TestControlCompareTracesControlledLegOnly(t *testing.T) {
	tr := burstTrace(t, 1)
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	cfg := demoConfig()
	cfg.Fleet.Device.Tracer = tracer
	cfg.Fleet.Device.Metrics = reg
	cmp, err := Compare(cfg, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := tracer.CountByKind()
	// Both legs saw every request; a double-traced run would show twice
	// as many arrivals as the trace has requests, and a double-filled
	// registry twice as many placements.
	if got, want := counts[obs.KindArrive], len(tr); got != want {
		t.Errorf("arrive events = %d, want %d (controlled leg only)", got, want)
	}
	placed := 0.0
	for _, m := range reg.Snapshot() {
		if strings.HasPrefix(m.Name, "fleet.") && strings.HasSuffix(m.Name, ".placed") {
			placed += m.Value
		}
	}
	if want := float64(len(tr)); placed != want {
		t.Errorf("placements in the registry = %v, want %v (controlled leg only)", placed, want)
	}
	if cmp.Static == nil {
		t.Fatal("static leg missing")
	}
}

// TestControlFillMetrics: the registry snapshot must agree with the
// summary's control-plane aggregates.
func TestControlFillMetrics(t *testing.T) {
	tr := burstTrace(t, 1)
	reg := obs.NewRegistry()
	cfg := demoConfig()
	cfg.Fleet.Device.Metrics = reg
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"control.scale_events":  float64(len(sum.Scale)),
		"control.migrations":    float64(len(sum.Migrations)),
		"control.ticks":         float64(len(sum.Timeline)),
		"control.peak_devices":  float64(sum.PeakDevices),
		"control.final_devices": float64(sum.FinalDevices),
		"control.device_ms":     sum.DeviceMs,
	} {
		if got := reg.Get(key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}
