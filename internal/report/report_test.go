package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"haxconn/internal/control"
	"haxconn/internal/experiments"
	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
	"haxconn/internal/soc"
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
			{Nodes: 4, DeployMs: 0.125, LatencyMs: 20},
			{Nodes: 30, DeployMs: 0.9375, LatencyMs: 15},
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
	if got := strings.Join(recs[0], ","); got != "phase,nodes,deploy_ms,latency_ms,baseline_ms,optimal_ms" {
		t.Errorf("header %s", got)
	}
	if got := strings.Join(recs[2][:3], ","); got != "1,30,0.9375" {
		t.Errorf("second update %s, want phase 1 at 30 nodes, 0.9375 ms", got)
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

// sampleFleet serves a short two-tenant trace on an Orin+Xavier fleet
// under least-loaded placement.
func sampleFleet(t *testing.T) *fleet.Summary {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Devices:   []fleet.DeviceSpec{{Platform: "Orin"}, {Platform: "Xavier"}},
		Placement: fleet.LeastLoaded(),
		Device:    serve.Config{SolverTimeScale: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.Serve(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func sampleTrace(t *testing.T) serve.Trace {
	t.Helper()
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 40, SLOMs: 15},
		{Name: "bob", Network: "ResNet152", RateRPS: 40, SLOMs: 18},
	}, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFleetCSV(t *testing.T) {
	sum := sampleFleet(t)
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

}

// sampleControlConfig is the canonical burst demo's controlled fleet:
// one Orin growing through Xavier and SD865 to three devices.
func sampleControlConfig() control.Config {
	return control.Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    3,
		GrowPlatforms: []string{"Xavier", "SD865"},
	}
}

func sampleControl(t *testing.T) *control.Summary {
	t.Helper()
	tr, err := control.DemoBurstTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := control.New(sampleControlConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestControlCSV(t *testing.T) {
	sum := sampleControl(t)
	var buf bytes.Buffer
	if err := ControlCSV(&buf, sum); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(sum.Timeline) + len(sum.Scale) + len(sum.Migrations)
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
	if kinds["pool"] != len(sum.Timeline) ||
		kinds["scale"] != len(sum.Scale) ||
		kinds["migration"] != len(sum.Migrations) {
		t.Errorf("row kinds %v vs timeline %d, scale %d, migrations %d",
			kinds, len(sum.Timeline), len(sum.Scale), len(sum.Migrations))
	}
	if kinds["scale"] == 0 || kinds["migration"] == 0 {
		t.Error("sample run produced no scale or migration rows; the CSV coverage is vacuous")
	}
}

// comparisonCSV runs legs over tr, renders the rows with ComparisonCSV
// and checks what every layer's comparison shares: the header, one row
// per leg in run order with the whole trace offered, and the baseline's
// figures against itself reading zero. It returns the records and the
// header's column index.
func comparisonCSV(t *testing.T, tr serve.Trace, legs []serve.Leg, names []string) ([][]string, map[string]int) {
	t.Helper()
	rows, err := serve.Compare(tr, legs...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ComparisonCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(names) {
		t.Fatalf("%d records, want header + %d legs: %v", len(recs), len(names), recs)
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	for _, name := range []string{"leg", "pool", "mix_policy", "offered", "p99_ms", "violations",
		"slo_attainment_pct", "device_ms", "peak_devices", "p99_impr_pct", "violations_avoided",
		"throughput_impr_pct", "device_ms_saved_pct"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("header missing %q: %v", name, recs[0])
		}
	}
	for i, want := range names {
		rec := recs[i+1]
		if rec[col["leg"]] != want {
			t.Errorf("row %d leg %q, want %q", i+1, rec[col["leg"]], want)
		}
		if rec[col["offered"]] != strconv.Itoa(len(tr)) {
			t.Errorf("%s: offered %s, want %d", want, rec[col["offered"]], len(tr))
		}
	}
	for _, name := range []string{"p99_impr_pct", "violations_avoided", "throughput_impr_pct", "device_ms_saved_pct"} {
		if v, err := strconv.ParseFloat(recs[1][col[name]], 64); err != nil || v != 0 {
			t.Errorf("baseline %s = %q, want 0", name, recs[1][col[name]])
		}
	}
	return recs, col
}

// TestServingComparisonCSV: the naive GPU-only baseline against the
// contention-aware runtime on one device, one row each.
func TestServingComparisonCSV(t *testing.T) {
	legs := serve.Legs(serve.Config{Platform: soc.Orin(), SolverTimeScale: 50})
	recs, col := comparisonCSV(t, sampleTrace(t), legs[:2], []string{"naive-gpu-only", "contention-aware"})
	for _, rec := range recs[1:] {
		if rec[col["pool"]] != "Orin" {
			t.Errorf("%s: pool %q, want Orin", rec[col["leg"]], rec[col["pool"]])
		}
	}
}

// TestMixComparisonCSV: the contention-aware runtime under each mix
// policy, FIFO first as the baseline; the mix_policy column names each.
func TestMixComparisonCSV(t *testing.T) {
	legs := serve.Legs(serve.Config{Platform: soc.Orin(), SolverTimeScale: 50})
	recs, col := comparisonCSV(t, sampleTrace(t), legs[1:],
		[]string{"contention-aware", "mix-demand-balance", "mix-contention-aware"})
	for i, want := range []string{serve.MixFIFO, serve.MixDemandBalance, serve.MixContentionAware} {
		if got := recs[i+1][col["mix_policy"]]; got != want {
			t.Errorf("%s: mix_policy %q, want %q", recs[i+1][col["leg"]], got, want)
		}
	}
}

// TestControlComparisonCSV: a static pool against the controlled one
// over a burst; the controller's scaling shows in device time.
func TestControlComparisonCSV(t *testing.T) {
	burst, err := control.DemoBurstTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	legs, err := control.Legs(sampleControlConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, col := comparisonCSV(t, burst, legs, []string{"static:least-loaded", "controlled:sticky"})
	if recs[1][col["device_ms"]] == recs[2][col["device_ms"]] {
		t.Errorf("device_ms identical for static and controlled: %v", recs[1][col["device_ms"]])
	}
}

// TestComparisonCSV: the one writer renders the remaining layers'
// comparisons too — a fleet against one device, and a sharded control
// plane against the global one.
func TestComparisonCSV(t *testing.T) {
	fleetLegs, err := fleet.Legs(fleet.Config{
		Devices: []fleet.DeviceSpec{{Platform: "Orin"}, {Platform: "Xavier"}},
		Device:  serve.Config{SolverTimeScale: 50},
	}, fleet.LeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	comparisonCSV(t, sampleTrace(t), fleetLegs, []string{"single:Orin", "fleet:least-loaded"})

	burst, err := control.DemoBurstTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	shardCfg := sampleControlConfig()
	shardCfg.Fleet.Devices = []fleet.DeviceSpec{{Platform: "Orin", Count: 2}}
	shardCfg.MaxDevices = 4
	shardLegs, err := shard.Legs(shard.Config{Control: shardCfg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	comparisonCSV(t, burst, shardLegs, []string{"global", "sharded:K=2"})
}

// TestControlCSVReactionTicks: the scale rows carry the reaction-lag
// column — populated for grows, empty (not zero) for every other kind.
func TestControlCSVReactionTicks(t *testing.T) {
	sum := sampleControl(t)
	var buf bytes.Buffer
	if err := ControlCSV(&buf, sum); err != nil {
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
