package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"haxconn/internal/obs"
	"haxconn/internal/serve"
)

// TestFleetTracingNoPerturbation: a traced fleet run must produce a
// byte-identical summary to an untraced one, with exactly one placement
// event per offered request and the full per-device lifecycle on the side.
func TestFleetTracingNoPerturbation(t *testing.T) {
	tr := defaultTrace(t)
	run := func(tracer *obs.Tracer) []byte {
		t.Helper()
		cfg := threeDeviceConfig()
		cfg.Device.Tracer = tracer
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := f.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	tracer := obs.NewTracer()
	traced := run(tracer)
	if !bytes.Equal(plain, traced) {
		t.Errorf("tracing changed the fleet summary:\n%s\nvs\n%s", plain, traced)
	}
	counts := tracer.CountByKind()
	if got, want := counts[obs.KindPlace], len(tr); got != want {
		t.Errorf("place events = %d, want one per request (%d)", got, want)
	}
	for _, kind := range []string{obs.KindArrive, obs.KindAdmit, obs.KindMixForm, obs.KindDispatch, obs.KindComplete} {
		if counts[kind] == 0 {
			t.Errorf("no %q events from the devices (counts: %v)", kind, counts)
		}
	}
	// Placement events must name real devices.
	names := map[string]bool{}
	for _, e := range tracer.Events() {
		if e.Kind == obs.KindPlace {
			names[e.Device] = true
		}
	}
	for _, want := range []string{"Orin/0", "Xavier/0", "SD865/0"} {
		if !names[want] {
			t.Errorf("no place events on %s (got devices %v)", want, names)
		}
	}
}

// TestFleetAuditNoPerturbation: the placement-decision audit must be
// strictly observational — byte-identical summaries with and without it,
// under the mix-aware placer whose MixFitMs predictions it records.
func TestFleetAuditNoPerturbation(t *testing.T) {
	tr := defaultTrace(t)
	run := func(audit *obs.Audit) []byte {
		t.Helper()
		cfg := threeDeviceConfig()
		cfg.Placement = MixAware()
		cfg.Device.MixPolicy = serve.MixContentionAware
		cfg.Device.Audit = audit
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := f.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	audit := obs.NewAudit()
	if got := run(audit); !bytes.Equal(plain, got) {
		t.Errorf("auditing changed the fleet summary:\n%s\nvs\n%s", plain, got)
	}
	if audit.Len() == 0 {
		t.Fatal("audit saw no pairs; no-perturbation check is vacuous")
	}
}

// TestFleetPlaceFitAudit: under a mix-aware placer every completion whose
// placement carried a MixFitMs prediction must yield exactly one
// place-fit pair — in the audit's fleet/device aggregates and as a trace
// event with both sides of the comparison — and re-summarizing must not
// double-count.
func TestFleetPlaceFitAudit(t *testing.T) {
	tr := defaultTrace(t)
	cfg := threeDeviceConfig()
	cfg.Placement = MixAware()
	cfg.Device.MixPolicy = serve.MixContentionAware
	cfg.Device.Audit = obs.NewAudit()
	cfg.Device.Tracer = obs.NewTracer()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	placeFit := 0
	for _, e := range cfg.Device.Tracer.Events() {
		if e.Kind != obs.KindAudit || e.Detail != "place-fit" {
			continue
		}
		placeFit++
		if e.Metrics["predicted_ms"] <= 0 || e.Metrics["actual_ms"] <= 0 {
			t.Fatalf("place-fit event with non-positive sides: %+v", e)
		}
		if e.Device == "" || e.Request < 0 {
			t.Fatalf("place-fit event missing identity: %+v", e)
		}
	}
	if placeFit == 0 {
		t.Fatal("no place-fit events under a mix-aware placer")
	}
	if placeFit > sum.Total.Completed {
		t.Errorf("place-fit events = %d, more than %d completions", placeFit, sum.Total.Completed)
	}
	total := 0
	for _, s := range cfg.Device.Audit.Snapshot() {
		if s.Layer == "fleet" && s.Scope == "device" {
			total += s.Count
		}
	}
	if total != placeFit {
		t.Errorf("fleet/device aggregate pairs = %d, want %d (one per place-fit event)", total, placeFit)
	}
	// Summarize flushes the buffered placement pairs: calling it again
	// must observe nothing new.
	f.Summarize()
	again := 0
	for _, s := range cfg.Device.Audit.Snapshot() {
		if s.Layer == "fleet" && s.Scope == "device" {
			again += s.Count
		}
	}
	if again != total {
		t.Errorf("re-summarizing grew the audit: %d -> %d pairs", total, again)
	}
}

// TestFleetCompareClearsSinks: fleet.Compare rebuilds identically named
// devices per leg, so it must strip the tracer, the audit and the
// registry from every leg rather than interleave them.
func TestFleetCompareClearsSinks(t *testing.T) {
	tr := defaultTrace(t)
	cfg := threeDeviceConfig()
	cfg.Device.Tracer = obs.NewTracer()
	cfg.Device.Audit = obs.NewAudit()
	cfg.Device.Metrics = obs.NewRegistry()
	if _, err := Compare(cfg, tr, RoundRobin(), LeastLoaded()); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Device.Metrics.Len(); n != 0 {
		t.Errorf("Compare leaked %d metrics into the shared registry", n)
	}
	if n := cfg.Device.Tracer.Len(); n != 0 {
		t.Errorf("Compare leaked %d events into the shared tracer", n)
	}
	if n := cfg.Device.Audit.Len(); n != 0 {
		t.Errorf("Compare leaked %d aggregates into the shared audit", n)
	}
}

// TestFleetSketchSummaryCounts: sketch-mode fleet summaries keep every
// exact-count field identical to the stored-sample path.
func TestFleetSketchSummaryCounts(t *testing.T) {
	tr := defaultTrace(t)
	run := func(sketch bool) *Summary {
		t.Helper()
		cfg := threeDeviceConfig()
		cfg.Device.SketchMetrics = sketch
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := f.Serve(tr)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	exact, sketched := run(false), run(true)
	if exact.Total.Offered != sketched.Total.Offered ||
		exact.Total.Completed != sketched.Total.Completed ||
		exact.Total.Violations != sketched.Total.Violations {
		t.Errorf("sketch mode changed exact counts: %+v vs %+v", exact.Total, sketched.Total)
	}
	if exact.SLOAttainmentPct != sketched.SLOAttainmentPct {
		t.Errorf("sketch mode changed SLO attainment: %v vs %v", exact.SLOAttainmentPct, sketched.SLOAttainmentPct)
	}
}

// TestFleetFillMetrics: the registry view must agree with the summary,
// and Serve must fill the template's registry with the same view.
func TestFleetFillMetrics(t *testing.T) {
	tr := defaultTrace(t)
	cfg := threeDeviceConfig()
	cfg.Device.Metrics = obs.NewRegistry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f.FillMetrics(reg)
	if got, want := mustJSON(t, cfg.Device.Metrics.Snapshot()), mustJSON(t, reg.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("Serve filled the template registry with\n%s\nwant\n%s", got, want)
	}
	if got := reg.Get("fleet.devices"); got != 3 {
		t.Errorf("fleet.devices = %v, want 3", got)
	}
	placed := 0.0
	for _, ds := range sum.Devices {
		placed += reg.Get("fleet." + ds.Device + ".placed")
		if got, want := reg.Get("serve."+ds.Device+".completions"), float64(ds.Summary.Total.Completed); got != want {
			t.Errorf("serve.%s.completions = %v, want %v", ds.Device, got, want)
		}
	}
	if want := float64(sum.Total.Offered); placed != want {
		t.Errorf("sum of fleet.<device>.placed = %v, want %v", placed, want)
	}
}
