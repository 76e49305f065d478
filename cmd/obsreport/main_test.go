package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"haxconn/internal/cliutil"
	"haxconn/internal/obs"
)

// auditEvent builds one per-request audit event at the given dispatch
// time with the four joined numbers the classifier reads.
func auditEvent(device string, req int, atMs, pred, act, wait, slo float64) obs.Event {
	return obs.Event{
		AtMs: atMs, Kind: obs.KindAudit, Device: device, Request: req,
		Detail: "m", Tenant: "t", Network: "n",
		Metrics: map[string]float64{
			"predicted_lat_ms": pred, "actual_lat_ms": act,
			"queue_wait_ms": wait, "slo_ms": slo,
		},
	}
}

func mustAnalyze(t *testing.T, events []obs.Event, utilWindowMs float64) *Report {
	t.Helper()
	rep, err := Analyze(events, utilWindowMs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func violateEvent(device string, req int, atMs, overMs float64) obs.Event {
	return obs.Event{AtMs: atMs, Kind: obs.KindViolate, Device: device,
		Request: req, Tenant: "t", Network: "n", Value: overMs}
}

// TestClassifyRules pins the attribution precedence on synthetic
// violations, one per class.
func TestClassifyRules(t *testing.T) {
	events := []obs.Event{
		// Request 1: the model said 8 <= SLO 10, reality said 12 —
		// mispredicted contention.
		auditEvent("D", 1, 100, 8, 12, 2, 10),
		violateEvent("D", 1, 112, 2),
		// Request 2: predicted 14 > SLO 10, but without its 6 ms wait it
		// would have fit — queue wait.
		auditEvent("D", 2, 200, 14, 14, 6, 10),
		violateEvent("D", 2, 214, 4),
		// Request 3: predicted 14 > SLO 10 even net of a 1 ms wait —
		// admission let a doomed request through.
		auditEvent("D", 3, 300, 14, 14, 1, 10),
		violateEvent("D", 3, 314, 4),
		// Request 4: same shape as 3, but a force event shows the
		// starvation bound put it in the round — forced dispatch wins.
		{AtMs: 400, Kind: obs.KindForce, Device: "D", Request: 4, Value: 9},
		auditEvent("D", 4, 400, 14, 14, 1, 10),
		violateEvent("D", 4, 414, 4),
		// Request 5: dispatched inside the scale-pressure window below —
		// scale lag wins over the model-error rules.
		{AtMs: 560, Kind: obs.KindAudit, Detail: "scale-lag", Request: obs.NoRequest,
			Value: 2, Metrics: map[string]float64{"trip_ms": 500, "clear_ms": 560, "lag_ticks": 2}},
		auditEvent("D", 5, 520, 8, 12, 2, 10),
		violateEvent("D", 5, 532, 2),
		// Request 6: a violation with no audit event cannot be attributed.
		violateEvent("D", 6, 600, 1),
	}
	rep := mustAnalyze(t, events, 0)
	if rep.Violations != 6 {
		t.Fatalf("Violations = %d, want 6", rep.Violations)
	}
	want := map[int]string{
		1: ClassMispredicted,
		2: ClassQueueWait,
		3: ClassRejectedLate,
		4: ClassForced,
		5: ClassScaleLag,
		6: ClassUnknown,
	}
	for _, row := range rep.Rows {
		if row.Class != want[row.Request] {
			t.Errorf("request %d classified %s, want %s", row.Request, row.Class, want[row.Request])
		}
	}
	for class, n := range rep.Classes {
		if n != 1 {
			t.Errorf("class %s counted %d, want 1", class, n)
		}
	}
}

// TestClassifyJoinsOnDevice: the same request ID on another device (a
// different compare leg) must not satisfy the join.
func TestClassifyJoinsOnDevice(t *testing.T) {
	events := []obs.Event{
		auditEvent("Orin/naive", 7, 100, 8, 12, 2, 10),
		violateEvent("Orin/aware", 7, 112, 2),
	}
	rep := mustAnalyze(t, events, 0)
	if got := rep.Rows[0].Class; got != ClassUnknown {
		t.Errorf("cross-leg join classified %s, want unknown", got)
	}
}

// TestClassifyOpenScaleWindow: a window that never resolved (clear -1)
// covers every dispatch after its trip.
func TestClassifyOpenScaleWindow(t *testing.T) {
	events := []obs.Event{
		{AtMs: 900, Kind: obs.KindAudit, Detail: "scale-lag", Request: obs.NoRequest,
			Value: -1, Metrics: map[string]float64{"trip_ms": 700, "clear_ms": -1, "lag_ticks": -1}},
		auditEvent("D", 8, 800, 8, 12, 2, 10),
		violateEvent("D", 8, 812, 2),
	}
	rep := mustAnalyze(t, events, 0)
	if got := rep.Rows[0].Class; got != ClassScaleLag {
		t.Errorf("dispatch inside an open window classified %s, want scale-lag", got)
	}
}

// TestAnalyzeCalibrationRebuild: audit events re-aggregate into the same
// (layer, scope, key) table the online audit computes — round pairs under
// serve/mix, request pairs under tenant and network, place-fit under
// fleet/device, scale-lag excluded.
func TestAnalyzeCalibrationRebuild(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindAudit, Request: obs.NoRequest, Detail: "VGG19|MinLatency",
			Metrics: map[string]float64{"predicted_ms": 9, "actual_ms": 10}},
		auditEvent("D", 1, 100, 8, 12, 2, 10),
		{Kind: obs.KindAudit, Device: "Orin/0", Tenant: "t", Network: "n", Request: 1,
			Detail: "place-fit", Metrics: map[string]float64{"predicted_ms": 11, "actual_ms": 10}},
		{Kind: obs.KindAudit, Detail: "scale-lag", Request: obs.NoRequest,
			Metrics: map[string]float64{"trip_ms": 1, "clear_ms": 2, "lag_ticks": 1}},
	}
	rep := mustAnalyze(t, events, 0)
	got := map[string]int{}
	for _, s := range rep.Calibration {
		got[s.Layer+"/"+s.Scope+"/"+s.Key] = s.Count
	}
	want := map[string]int{
		"serve/mix/VGG19|MinLatency": 1,
		"serve/tenant/t":             1,
		"serve/network/n":            1,
		"fleet/device/Orin/0":        1,
	}
	if len(got) != len(want) {
		t.Fatalf("calibration keys = %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s count = %d, want %d", k, got[k], n)
		}
	}

	// Two round-level pairs whose predictions sum past the float64 range
	// fail the analysis, naming the aggregate, instead of reporting a
	// +Inf bias the JSON encoder rejects.
	overflow, err := parseEvents(strings.NewReader(
		`{"at_ms":1,"kind":"audit","request":-1,"detail":"VGG19|MinLatency","metrics":{"predicted_ms":1e308,"actual_ms":1}}` + "\n" +
			`{"at_ms":2,"kind":"audit","request":-1,"detail":"VGG19|MinLatency","metrics":{"predicted_ms":1e308,"actual_ms":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(overflow, 0); err == nil || !strings.Contains(err.Error(), "(serve, mix, VGG19|MinLatency)") {
		t.Errorf("Analyze error = %v, want one naming (serve, mix, VGG19|MinLatency)", err)
	}
}

// TestUtilizationBuckets: dispatch spans split proportionally across
// window boundaries and devices stay separate.
func TestUtilizationBuckets(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.KindDispatch, Device: "A", AtMs: 50, DurMs: 100}, // 50 in w0, 50 in w1
		{Kind: obs.KindDispatch, Device: "A", AtMs: 160, DurMs: 20}, // 20 in w1
		{Kind: obs.KindDispatch, Device: "B", AtMs: 210, DurMs: 40}, // 40 in w2
	}
	rows, err := utilization(events, 100)
	if err != nil {
		t.Fatal(err)
	}
	busy := map[string]map[float64]float64{}
	for _, r := range rows {
		if busy[r.Device] == nil {
			busy[r.Device] = map[float64]float64{}
		}
		busy[r.Device][r.StartMs] = r.BusyMs
	}
	if busy["A"][0] != 50 || busy["A"][100] != 70 {
		t.Errorf("device A buckets = %v", busy["A"])
	}
	if busy["B"][200] != 40 {
		t.Errorf("device B buckets = %v", busy["B"])
	}
	// Device B's timeline still renders the empty leading windows.
	if len(busy["B"]) != 3 {
		t.Errorf("device B has %d windows, want 3 (zero-filled from 0)", len(busy["B"]))
	}
}

// TestUtilizationBound: a span too long for its window, one far before
// time 0, a window too small for its span and a non-finite window each
// fail the analysis instead of exhausting memory or looping, and a span
// crossing an edge where t/windowMs rounds below the window index (571.9
// ms = 43 x 13.3 ms) still finishes with its busy time counted once.
func TestUtilizationBound(t *testing.T) {
	cases := []struct {
		name     string
		trace    string
		windowMs float64
		wantErr  string
	}{
		{"long span", `{"at_ms":0,"dur_ms":1e12,"kind":"dispatch","device":"D","request":-1}`, 100, "windows"},
		{"before time 0", `{"at_ms":-1e9,"dur_ms":1e9,"kind":"dispatch","device":"D","request":-1}`, 100, "windows"},
		{"tiny window", `{"at_ms":0,"dur_ms":5,"kind":"dispatch","device":"D","request":-1}`, 1e-9, "windows"},
		{"NaN window", `{"at_ms":0,"dur_ms":5,"kind":"dispatch","device":"D","request":-1}`, math.NaN(), "not finite"},
		{"rounded edge", `{"at_ms":570,"dur_ms":5,"kind":"dispatch","device":"D","request":-1}`, 13.3, ""},
		{"overflowing busy time", `{"at_ms":0,"dur_ms":1e308,"kind":"dispatch","device":"D","request":-1}`, 1e308, "not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := parseEvents(strings.NewReader(tc.trace))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Analyze(events, tc.windowMs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Analyze error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			busy := 0.0
			for _, u := range rep.Utilization {
				busy += u.BusyMs
			}
			if math.Abs(busy-5) > 1e-9 || len(rep.Utilization) != 44 {
				t.Errorf("busy %g ms over %d windows, want 5 ms over 44", busy, len(rep.Utilization))
			}
		})
	}
}

// TestRequirePresets: every preset passes on a trace with one event of
// each of its kinds and fails, naming the kind, when any one is missing.
func TestRequirePresets(t *testing.T) {
	for name := range presets {
		kinds := requiredKinds(name)
		for skip := -1; skip < len(kinds); skip++ {
			var trace strings.Builder
			for i, kind := range kinds {
				if i != skip {
					fmt.Fprintf(&trace, "{\"kind\":%q,\"request\":-1}\n", kind)
				}
			}
			events, err := parseEvents(strings.NewReader(trace.String()))
			if err != nil {
				t.Fatal(err)
			}
			err = checkKinds(countKinds(events), kinds)
			switch {
			case skip < 0 && err != nil:
				t.Errorf("%s: complete trace fails: %v", name, err)
			case skip >= 0 && (err == nil || !strings.Contains(err.Error(), kinds[skip])):
				t.Errorf("%s without %s: error = %v", name, kinds[skip], err)
			}
		}
	}
	if got := requiredKinds("fleet, gossip"); len(got) != len(requiredKinds("fleet"))+1 || got[len(got)-1] != "gossip" {
		t.Errorf("requiredKinds(fleet, gossip) = %v", got)
	}
}

// TestChromeCountsMatchJSONL: the Chrome and JSONL exports of one tracer
// count the same events per kind, counter samples and spans included.
func TestChromeCountsMatchJSONL(t *testing.T) {
	tr := obs.NewTracer()
	for i := 0; i < 3; i++ {
		at := float64(10 * i)
		tr.Emit(obs.Event{AtMs: at, Kind: obs.KindArrive, Tenant: "t", Request: i})
		tr.Emit(obs.Event{AtMs: at, Kind: obs.KindAdmit, Tenant: "t", Device: "D", Request: i})
		tr.Emit(obs.Event{AtMs: at, DurMs: 4, Kind: obs.KindDispatch, Device: "D", Request: obs.NoRequest})
		tr.Emit(obs.Event{AtMs: at + 4, Kind: obs.KindComplete, Tenant: "t", Device: "D", Request: i, Value: 4})
	}
	tr.Emit(obs.Event{AtMs: 5, Kind: obs.KindPool, Request: obs.NoRequest,
		Metrics: map[string]float64{"active": 1, "backlog_ms": 2}})
	tr.Emit(obs.Event{AtMs: 6, Kind: obs.KindPool, Request: obs.NoRequest})
	tr.Emit(obs.Event{AtMs: 7, Kind: obs.KindScale, Request: obs.NoRequest, Detail: "grow"})
	tr.Emit(obs.Event{AtMs: 8, Kind: obs.KindGossip, Request: obs.NoRequest,
		Metrics: map[string]float64{"shard": 1}})

	dir := t.TempDir()
	chromePath, jsonlPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "t.jsonl")
	if err := cliutil.WriteFile(chromePath, tr.WriteChromeTrace); err != nil {
		t.Fatal(err)
	}
	if err := cliutil.WriteFile(jsonlPath, tr.WriteJSONL); err != nil {
		t.Fatal(err)
	}
	chrome, err := readChromeCounts(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := readEvents(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	jsonl := countKinds(events)
	want := tr.CountByKind()
	if !reflect.DeepEqual(chrome, want) || !reflect.DeepEqual(jsonl, want) {
		t.Errorf("counts differ:\n chrome %v\n jsonl  %v\n tracer %v", chrome, jsonl, want)
	}
}

// TestIngestRejectsUnnamed: an event with no kind, a metric with no name
// and a CSV metric whose value is not finite fail ingest, naming the line
// (JSONL) or row (CSV).
func TestIngestRejectsUnnamed(t *testing.T) {
	_, err := parseEvents(strings.NewReader("{\"kind\":\"arrive\",\"request\":1}\n\n{\"at_ms\":3,\"request\":2}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3: event has no kind") {
		t.Errorf("event without kind: error = %v", err)
	}
	_, err = parseMetrics(strings.NewReader("{\"name\":\"a\",\"value\":1}\n{\"value\":2}\n"), false)
	if err == nil || !strings.Contains(err.Error(), "line 2: metric has no name") {
		t.Errorf("JSONL metric without name: error = %v", err)
	}
	_, err = parseMetrics(strings.NewReader("name,value\na,1\n,2\n"), true)
	if err == nil || !strings.Contains(err.Error(), "row 2: metric has no name") {
		t.Errorf("CSV metric without name: error = %v", err)
	}
	_, err = parseMetrics(strings.NewReader("name,value\na,NaN\n"), true)
	if err == nil || !strings.Contains(err.Error(), `row 1: metric "a" value NaN is not finite`) {
		t.Errorf("CSV metric with a NaN value: error = %v", err)
	}
}
