package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"haxconn/internal/control"
	"haxconn/internal/experiments"
	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
)

func sampleT6() []*experiments.T6Row {
	return []*experiments.T6Row{{
		Def: experiments.T6Def{
			Exp: 1, Platform: "Xavier", Goal: schedule.MinMaxLatency,
			Networks:     []string{"VGG19", "ResNet152"},
			PaperImprLat: 0.23, PaperImprFPS: 0.22,
		},
		Baselines:    map[string]experiments.Metrics{"GPU-only": {LatencyMs: 18.5, FPS: 108}},
		BestBaseline: "GPU-only",
		HaX:          experiments.Metrics{LatencyMs: 13.2, FPS: 151},
		Schedule:     "VGG19: GPU[0-28] DLA[29-45]",
		ImprLat:      0.28, ImprFPS: 0.40,
	}}
}

func TestTable6CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Table6CSV(&buf, sampleT6()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0][0] != "exp" || recs[1][1] != "Xavier" {
		t.Errorf("unexpected contents: %v", recs)
	}
	if !strings.Contains(recs[1][3], "VGG19+ResNet152") {
		t.Errorf("networks column: %q", recs[1][3])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleT6()); err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("%d entries", len(back))
	}
}

func TestFig7CSV(t *testing.T) {
	phases := []experiments.Fig7Phase{{
		Networks:   []string{"A", "B"},
		BaselineMs: 20, OptimalMs: 15,
		Updates: []experiments.Fig7Update{
			{SolverTime: 50 * time.Microsecond, LatencyMs: 20},
			{SolverTime: 500 * time.Microsecond, LatencyMs: 15},
		},
	}}
	var buf bytes.Buffer
	if err := Fig7CSV(&buf, phases); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
}

func TestRealArtifactsSerialize(t *testing.T) {
	// End-to-end: real Table 2/5 and Fig 5 rows go through CSV cleanly.
	var buf bytes.Buffer
	if err := Table2CSV(&buf, experiments.Table2()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines < 9 {
		t.Errorf("table2 lines = %d", lines)
	}
	buf.Reset()
	if err := Table5CSV(&buf, experiments.Table5()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 11 {
		t.Errorf("table5 lines = %d", lines)
	}
	buf.Reset()
	rows, err := experiments.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if err := Fig5CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	cells := []experiments.T8Cell{{Net1: "A", Net2: "B", BestBaseline: "GPU", Ratio: 1.1, Iter1: 1, Iter2: 2}}
	if err := Table8CSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.1000") {
		t.Errorf("ratio missing: %s", buf.String())
	}
}

func sampleServing(policy serve.Policy) *serve.Summary {
	return serve.Summarize([]serve.Completion{
		{Request: serve.Request{Tenant: "alice", Network: "VGG19", SLOMs: 10}, EndMs: 8, LatencyMs: 8},
		{Request: serve.Request{Tenant: "alice", Network: "VGG19", SLOMs: 10}, EndMs: 14, LatencyMs: 14, Violated: true},
		{Request: serve.Request{Tenant: "bob", Network: "ResNet152", SLOMs: 12}, EndMs: 9, LatencyMs: 9},
		{Request: serve.Request{Tenant: "bob", Network: "ResNet152"}, Rejected: true},
	}, policy, "Orin", schedule.MinMaxLatency)
}

func TestServingCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := ServingCSV(&buf, sampleServing(serve.ContentionAware)); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + alice + bob + TOTAL
	if len(recs) != 4 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[1][1] != "alice" || recs[2][1] != "bob" || recs[3][1] != "TOTAL" {
		t.Errorf("unexpected rows: %v", recs)
	}
	if recs[1][0] != "contention-aware" || recs[1][11] != "1" {
		t.Errorf("alice row: %v", recs[1])
	}
	if recs[0][len(recs[0])-1] != "mix_policy" {
		t.Errorf("serving CSV missing mix_policy column: %v", recs[0])
	}
}

func TestServingComparisonCSV(t *testing.T) {
	cmp := &serve.Comparison{Aware: sampleServing(serve.ContentionAware), Naive: sampleServing(serve.NaiveGPUOnly)}
	var buf bytes.Buffer
	if err := ServingComparisonCSV(&buf, cmp); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[3][0] != "TOTAL" {
		t.Errorf("last row: %v", recs[3])
	}
}

func TestMixComparisonCSV(t *testing.T) {
	fifo := sampleServing(serve.ContentionAware)
	db := sampleServing(serve.ContentionAware)
	db.MixPolicy = serve.MixDemandBalance
	ca := sampleServing(serve.ContentionAware)
	ca.MixPolicy = serve.MixContentionAware
	cmp := &serve.MixComparison{
		Policies: []string{serve.MixFIFO, serve.MixDemandBalance, serve.MixContentionAware},
		Results:  []*serve.Summary{fifo, db, ca},
	}
	var buf bytes.Buffer
	if err := MixComparisonCSV(&buf, cmp); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("%d records, want header + 3 policy rows", len(recs))
	}
	if recs[0][0] != "mix_policy" || recs[0][7] != "p99_impr_pct" {
		t.Errorf("header: %v", recs[0])
	}
	for i, want := range cmp.Policies {
		if recs[i+1][0] != want {
			t.Errorf("row %d policy %q, want %q", i+1, recs[i+1][0], want)
		}
	}
}

func sampleFleet(t *testing.T) (*fleet.Summary, *fleet.Comparison) {
	t.Helper()
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 40, SLOMs: 15},
		{Name: "bob", Network: "ResNet152", RateRPS: 40, SLOMs: 18},
	}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet.Config{
		Devices: []fleet.DeviceSpec{{Platform: "Orin"}, {Platform: "Xavier"}},
		Device:  serve.Config{SolverTimeScale: 50},
	}
	cmp, err := fleet.Compare(cfg, tr, fleet.LeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	return cmp.Fleets[0], cmp
}

func TestFleetCSV(t *testing.T) {
	sum, cmp := sampleFleet(t)
	var buf bytes.Buffer
	if err := FleetCSV(&buf, sum); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + Orin/0 + Xavier/0 + TOTAL
	if len(recs) != 4 {
		t.Fatalf("%d records: %v", len(recs), recs)
	}
	if recs[1][2] != "Orin/0" || recs[2][2] != "Xavier/0" || recs[3][2] != "TOTAL" {
		t.Errorf("device column: %v", recs)
	}
	if recs[1][0] != "least-loaded" || recs[1][1] != "Orin+Xavier" {
		t.Errorf("placement/pool: %v", recs[1])
	}
	if recs[0][len(recs[0])-1] != "mix_policy" || recs[1][len(recs[1])-1] != "fifo" {
		t.Errorf("fleet CSV mix_policy column: header %v, device row %v", recs[0], recs[1])
	}

	buf.Reset()
	if err := FleetComparisonCSV(&buf, cmp); err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + single + one fleet policy
	if len(recs) != 3 {
		t.Fatalf("%d records: %v", len(recs), recs)
	}
	if recs[1][0] != "single:Orin" || recs[2][0] != "fleet:least-loaded" {
		t.Errorf("config column: %v", recs)
	}
}

func sampleControl(t *testing.T) *control.CompareResult {
	t.Helper()
	tr, err := control.DemoBurstTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := control.Compare(control.Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    3,
		GrowPlatforms: []string{"Xavier", "SD865"},
	}, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cmp
}

func TestControlCSV(t *testing.T) {
	cmp := sampleControl(t)
	var buf bytes.Buffer
	if err := ControlCSV(&buf, cmp.Controlled); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(cmp.Controlled.Timeline) + len(cmp.Controlled.Scale) + len(cmp.Controlled.Migrations)
	if len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	if recs[0][0] != "kind" || recs[1][0] != "pool" {
		t.Errorf("header/first rows: %v %v", recs[0], recs[1])
	}
	if recs[0][len(recs[0])-2] != "mix" || recs[0][len(recs[0])-1] != "reaction_ticks" {
		t.Errorf("control CSV missing mix/reaction_ticks columns: %v", recs[0])
	}
	kinds := map[string]int{}
	for _, r := range recs[1:] {
		kinds[r[0]]++
	}
	if kinds["pool"] != len(cmp.Controlled.Timeline) ||
		kinds["scale"] != len(cmp.Controlled.Scale) ||
		kinds["migration"] != len(cmp.Controlled.Migrations) {
		t.Errorf("row kinds %v vs timeline %d, scale %d, migrations %d",
			kinds, len(cmp.Controlled.Timeline), len(cmp.Controlled.Scale), len(cmp.Controlled.Migrations))
	}
	if kinds["scale"] == 0 || kinds["migration"] == 0 {
		t.Error("sample run produced no scale or migration rows; the CSV coverage is vacuous")
	}
}

func TestControlComparisonCSV(t *testing.T) {
	cmp := sampleControl(t)
	var buf bytes.Buffer
	if err := ControlComparisonCSV(&buf, cmp); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + controlled + static
	if len(recs) != 3 {
		t.Fatalf("%d records: %v", len(recs), recs)
	}
	if recs[1][0] != "controlled:sticky" || recs[2][0] != "static:least-loaded" {
		t.Errorf("config column: %v", recs)
	}
	if recs[1][7] == recs[2][7] {
		t.Errorf("device_ms identical for controlled and static: %v", recs[1][7])
	}
}

// TestControlCSVReactionTicks: the scale rows carry the reaction-lag
// column — populated for grows, empty (not zero) for every other kind.
func TestControlCSVReactionTicks(t *testing.T) {
	cmp := sampleControl(t)
	var buf bytes.Buffer
	if err := ControlCSV(&buf, cmp.Controlled); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col, action := -1, -1
	for i, name := range recs[0] {
		switch name {
		case "reaction_ticks":
			col = i
		case "action":
			action = i
		}
	}
	if col < 0 || action < 0 {
		t.Fatalf("missing reaction_ticks or action column in header %v", recs[0])
	}
	growRows := 0
	for _, r := range recs[1:] {
		if r[0] == "scale" && r[action] == "grow" {
			growRows++
			if r[col] == "" {
				t.Errorf("grow row has empty reaction_ticks: %v", r)
			}
		} else if r[col] != "" {
			t.Errorf("non-grow row has reaction_ticks %q: %v", r[col], r)
		}
	}
	if growRows == 0 {
		t.Error("sample run produced no grow rows; reaction_ticks coverage is vacuous")
	}
}

// TestAuditCSV: the audit table renders one row per aggregate in
// Snapshot's deterministic order, with one trailing column per
// calibration bucket — and renders byte-identically across calls.
func TestAuditCSV(t *testing.T) {
	a := obs.NewAudit()
	a.Observe("serve", "tenant", "bob", 12, 10)
	a.Observe("fleet", "device", "Orin/0", 9, 10)
	a.Observe("serve", "mix", "VGG19|MinLatency", 10, 10)
	render := func() string {
		var buf bytes.Buffer
		if err := AuditCSV(&buf, a.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	recs, err := csv.NewReader(strings.NewReader(first)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("%d records, want header + 3 rows", len(recs))
	}
	if want := 8 + obs.NumCalibrationBuckets; len(recs[0]) != want {
		t.Fatalf("header has %d columns, want %d: %v", len(recs[0]), want, recs[0])
	}
	if recs[0][len(recs[0])-1] != "ratio_"+obs.CalibrationLabels[obs.NumCalibrationBuckets-1] {
		t.Errorf("last header column: %v", recs[0][len(recs[0])-1])
	}
	// Snapshot order: fleet before serve, mix before tenant.
	if recs[1][0] != "fleet" || recs[2][2] != "VGG19|MinLatency" || recs[3][2] != "bob" {
		t.Errorf("row order: %v", recs[1:])
	}
	// bob: ratio 1.2 lands in the 1.05-1.25 bucket (column 8 + 3).
	if recs[3][11] != "1" {
		t.Errorf("bob calibration row: %v", recs[3])
	}
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	metrics := []obs.Metric{
		{Name: "cache.Orin.hits", Value: 184},
		{Name: "serve.Orin.clock_ms", Value: 1003.25},
	}
	if err := MetricsCSV(&buf, metrics); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want header + 2 rows", len(recs))
	}
	if recs[0][0] != "metric" || recs[0][1] != "value" {
		t.Errorf("header: %v", recs[0])
	}
	if recs[1][0] != "cache.Orin.hits" || recs[1][1] != "184.0000" {
		t.Errorf("first row: %v", recs[1])
	}
	if recs[2][1] != "1003.2500" {
		t.Errorf("second row: %v", recs[2])
	}
}
