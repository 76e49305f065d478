package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/serve"
)

// demoControl is the global-equivalent control configuration the shard
// tests partition: a four-Orin pool with growth headroom, the demo
// solver time scale, and platform growth cycling like the control demo.
func demoControl() control.Config {
	return control.Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin", Count: 4}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    8,
		GrowPlatforms: []string{"Orin"},
	}
}

func shardTrace(t *testing.T, seed int64) serve.Trace {
	t.Helper()
	tr, err := DemoShardTrace(seed)
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

// TestShardedDeterminism is the tentpole's determinism gate: same seed,
// same K, same GOMAXPROCS-independent barrier schedule ⇒ byte-identical
// merged summaries, metrics and traces across runs. CI runs it under
// -race, so the barrier's happens-before argument is machine-checked too.
func TestShardedDeterminism(t *testing.T) {
	run := func() ([]byte, []byte, []byte) {
		tracer := obs.NewTracer()
		reg := obs.NewRegistry()
		p, err := New(Config{Control: demoControl(), Shards: 4, Tracer: tracer, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.Serve(shardTrace(t, 11))
		if err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		if err := tracer.WriteJSONL(&events); err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, sum), mustJSON(t, reg.Snapshot()), events.Bytes()
	}
	sum1, met1, ev1 := run()
	sum2, met2, ev2 := run()
	if !bytes.Equal(sum1, sum2) {
		t.Error("merged summaries differ across identical sharded runs")
	}
	if !bytes.Equal(met1, met2) {
		t.Error("metrics snapshots differ across identical sharded runs")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("merged traces differ across identical sharded runs")
	}
}

// TestSingleShardEquivalence: a K=1 plane is the existing global
// controller, to the last digit — same loop, same summary bytes.
func TestSingleShardEquivalence(t *testing.T) {
	tr := shardTrace(t, 7)

	p, err := New(Config{Control: demoControl(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := p.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.PerShard) != 1 {
		t.Fatalf("K=1 plane produced %d shard summaries", len(sharded.PerShard))
	}

	global, err := control.New(demoControl())
	if err != nil {
		t.Fatal(err)
	}
	gsum, err := global.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := mustJSON(t, sharded.PerShard[0].Control), mustJSON(t, gsum); !bytes.Equal(got, want) {
		t.Errorf("K=1 shard summary differs from the global controller:\n got %s\nwant %s", got, want)
	}
	if sharded.GossipRxEntries != 0 || len(sharded.Handoffs) != 0 {
		t.Errorf("K=1 plane gossiped to itself: rx=%d handoffs=%d",
			sharded.GossipRxEntries, len(sharded.Handoffs))
	}
	if sharded.SLOAttainmentPct != gsum.Fleet.SLOAttainmentPct {
		t.Errorf("merged attainment %.6f != global %.6f",
			sharded.SLOAttainmentPct, gsum.Fleet.SLOAttainmentPct)
	}
}

// TestShardedGossipWarmsCaches: at K=4 on the demo trace, entries flow
// over the gossip channel and at least one shard serves a real lookup
// from an imported entry — the warm-hit win condition.
func TestShardedGossipWarmsCaches(t *testing.T) {
	p, err := New(Config{Control: demoControl(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := p.Serve(shardTrace(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	if sum.GossipTxEntries == 0 {
		t.Error("no cache entries exported over gossip")
	}
	if sum.GossipRxEntries == 0 {
		t.Error("no cache entries imported from gossip")
	}
	if sum.WarmHits == 0 {
		t.Error("no gossip-imported entry ever served a lookup (warm hits = 0)")
	}
	if sum.Rounds == 0 {
		t.Error("no gossip rounds recorded")
	}
	// Every request of the trace is accounted for in the merged summary.
	tr := shardTrace(t, 11)
	if sum.Total.Offered != len(tr) {
		t.Errorf("merged summary accounts %d of %d offered requests", sum.Total.Offered, len(tr))
	}
}

// TestShardedHandoff: with per-shard elasticity disabled (max = initial)
// and the burst concentrated on shard 0's tenants, the pressured shard
// must shed a tenant over the gossip channel, and the moved tenant's
// requests must still all complete.
func TestShardedHandoff(t *testing.T) {
	cfg := demoControl()
	cfg.MaxDevices = 4 // no growth headroom: handoff is the only relief
	p, err := New(Config{Control: cfg, Shards: 4, HandoffBacklogMs: 15})
	if err != nil {
		t.Fatal(err)
	}
	tr := shardTrace(t, 11)
	sum, err := p.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Handoffs) == 0 {
		t.Fatal("pressured shard never handed a tenant off")
	}
	for _, ho := range sum.Handoffs {
		if ho.From == ho.To || ho.Moved <= 0 || ho.Cause != "backlog-pressure" {
			t.Errorf("malformed handoff: %+v", ho)
		}
	}
	if sum.Total.Offered != len(tr) {
		t.Errorf("handoff lost requests: accounted %d of %d", sum.Total.Offered, len(tr))
	}
}

// TestShardedRequestsEndOnce: on TestShardedHandoff's configuration, which
// hands a tenant off, the plane's merged trace carries exactly one
// terminal event — complete or reject — for every request ID of the
// trace, and none for an ID the trace does not hold. A handoff moves a
// tenant's future arrivals between shards, so a request lost or served
// twice in the move would show here.
func TestShardedRequestsEndOnce(t *testing.T) {
	cfg := demoControl()
	cfg.MaxDevices = 4
	tracer := obs.NewTracer()
	p, err := New(Config{Control: cfg, Shards: 4, HandoffBacklogMs: 15, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	tr := shardTrace(t, 11)
	sum, err := p.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Handoffs) == 0 {
		t.Fatal("no handoff: the test would not cover one")
	}
	ends := map[int]int{}
	for _, q := range tr {
		ends[q.ID] = 0
	}
	if len(ends) != len(tr) {
		t.Fatalf("trace IDs are not unique: %d IDs for %d requests", len(ends), len(tr))
	}
	for _, e := range tracer.Events() {
		if e.Kind != obs.KindComplete && e.Kind != obs.KindReject {
			continue
		}
		n, ok := ends[e.Request]
		if !ok {
			t.Fatalf("terminal %s event for request %d, which the trace does not hold", e.Kind, e.Request)
		}
		ends[e.Request] = n + 1
	}
	for _, q := range tr {
		if n := ends[q.ID]; n != 1 {
			t.Errorf("request %d (tenant %s) ended %d times", q.ID, q.Tenant, n)
		}
	}
}

// TestShardedRegionCompare runs the canonical region-scale comparison
// (the BenchmarkShardedControl configuration) and checks the win
// condition: the sharded leg's SLO attainment is equal or better, solves
// are partitioned (deferrals and assists both happened), the gossip
// channel warmed caches, and both legs served the whole trace.
func TestShardedRegionCompare(t *testing.T) {
	tr, err := DemoRegionTrace(11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(Config{Control: DemoRegionControl(), Shards: 4}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sharded.SLOAttainmentPct < res.GlobalSLOAttainmentPct {
		t.Errorf("sharded SLO %.2f%% below global %.2f%%",
			res.Sharded.SLOAttainmentPct, res.GlobalSLOAttainmentPct)
	}
	if res.Sharded.WarmHits == 0 {
		t.Error("no warm hits at region scale")
	}
	if res.Sharded.Deferred == 0 || res.Sharded.SolveAssists == 0 {
		t.Errorf("solve ownership inert: deferred=%d assists=%d",
			res.Sharded.Deferred, res.Sharded.SolveAssists)
	}
	if res.Sharded.Total.Offered != len(tr) || res.Global.Fleet.Total.Offered != len(tr) {
		t.Errorf("legs served %d/%d of %d offered requests",
			res.Sharded.Total.Offered, res.Global.Fleet.Total.Offered, len(tr))
	}
}

// TestPartitionValidation: the plane rejects configurations the shards
// cannot be built from, and non-finite thresholds by name. Unchecked, a
// NaN HandoffBacklogMs made every shard at K=4 both pressured and a
// recipient, and a NaN TickMs stalled a K=2 run.
func TestPartitionValidation(t *testing.T) {
	base := demoControl()
	nanTick := demoControl()
	nanTick.TickMs = math.NaN()
	cases := []struct {
		name  string
		cfg   Config
		field string // when set, the error must name it
	}{
		{"more shards than devices", Config{Control: base, Shards: 5}, ""},
		{"device pinned out of range", Config{Control: base, Shards: 2,
			DeviceShard: map[int]int{9: 0}}, ""},
		{"device pinned to bad shard", Config{Control: base, Shards: 2,
			DeviceShard: map[int]int{0: 7}}, ""},
		{"all devices pinned to one shard", Config{Control: base, Shards: 2,
			DeviceShard: map[int]int{0: 0, 1: 0, 2: 0, 3: 0}}, ""},
		{"tenant pinned to bad shard", Config{Control: base, Shards: 2,
			TenantShard: map[string]int{"cam-a": 5}}, ""},
		{"NaN handoff backlog", Config{Control: base, Shards: 4,
			HandoffBacklogMs: math.NaN()}, "HandoffBacklogMs"},
		{"infinite handoff backlog", Config{Control: base, Shards: 4,
			HandoffBacklogMs: math.Inf(1)}, "HandoffBacklogMs"},
		{"NaN control tick", Config{Control: nanTick, Shards: 2}, "TickMs"},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: config accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
	// A pinned tenant missing from the trace fails at Serve.
	p, err := New(Config{Control: base, Shards: 2, TenantShard: map[string]int{"ghost": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Serve(shardTrace(t, 3)); err == nil {
		t.Error("pinned tenant absent from trace accepted")
	}
}

// TestPartitionPinning: explicit tenant and device pins land where they
// point.
func TestPartitionPinning(t *testing.T) {
	p, err := New(Config{Control: demoControl(), Shards: 2,
		TenantShard: map[string]int{"cam-a": 1, "scorer-d": 0}})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := p.PartitionTenants(shardTrace(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if assign["cam-a"] != 1 || assign["scorer-d"] != 0 {
		t.Errorf("pins ignored: %v", assign)
	}
	if len(assign) != 8 {
		t.Errorf("partition covers %d tenants, want 8", len(assign))
	}
}

// TestServeRejectsNonFiniteArrivals: a NaN or +Inf arrival time is an
// error before the trace is partitioned. Unchecked, the shard holding the
// request never finished its run.
func TestServeRejectsNonFiniteArrivals(t *testing.T) {
	p, err := New(Config{Control: demoControl(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		tr := serve.Trace{
			{ID: 0, Tenant: "cam-a", Network: "VGG19", ArrivalMs: 0, SLOMs: 10},
			{ID: 1, Tenant: "cam-b", Network: "VGG19", ArrivalMs: at, SLOMs: 10},
		}
		if _, err := p.Serve(tr); err == nil {
			t.Errorf("arrival %g: Plane.Serve accepted the trace", at)
		}
	}
}
