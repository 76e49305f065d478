// Benchmark regression harness for the control plane: the controlled-vs-
// static comparison on the canonical bursty trace — p99, SLO violations
// and device-time consumed on both sides, plus the decision counts. All
// virtual-time derived, so the numbers are deterministic run to run; a
// drift means the controller's behavior changed. Each benchmark reports
// its metrics via b.ReportMetric AND records them for BENCH_control.json
// (written by TestMain) — run
//
//	go test -bench Control -benchtime=1x .
//
// and diff BENCH_control.json against the committed baseline (cmd/benchdiff
// does the tolerance check in CI).
package haxconn

import (
	"testing"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
)

// BenchmarkControlCompare serves the bursty four-tenant trace on the
// controlled fleet (one Orin growing through Xavier and SD865) and on the
// static max-size pool — the exact configuration the acceptance test
// requires to win at least two of {p99, violations, device-time}.
func BenchmarkControlCompare(b *testing.B) {
	tr, err := control.DemoBurstTrace(1)
	if err != nil {
		b.Fatal(err)
	}
	var cmp *control.CompareResult
	for i := 0; i < b.N; i++ {
		cmp, err = control.Compare(control.Config{
			Fleet: fleet.Config{
				Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
				Device:  serve.Config{SolverTimeScale: 50},
			},
			MaxDevices:    3,
			GrowPlatforms: []string{"Xavier", "SD865"},
		}, tr, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	metrics := map[string]float64{
		"controlled_p99_ms":     cmp.Controlled.Fleet.Total.P99Ms,
		"static_p99_ms":         cmp.Static.Total.P99Ms,
		"controlled_violations": float64(cmp.Controlled.Fleet.Total.Violations),
		"static_violations":     float64(cmp.Static.Total.Violations),
		"controlled_device_ms":  cmp.Controlled.DeviceMs,
		"static_device_ms":      cmp.StaticDeviceMs,
		"peak_devices":          float64(cmp.Controlled.PeakDevices),
		"scale_events":          float64(len(cmp.Controlled.Scale)),
		"migrations":            float64(len(cmp.Controlled.Migrations)),
		"seeded_entries":        float64(cmp.Controlled.SeededEntries),
		"win_count":             float64(cmp.WinCount()),
	}
	reportAndRecordControl(b, "BenchmarkControlCompare", metrics)
}

// BenchmarkShardedControl is the sharded-control win condition: the
// region-scale demo (48 Orins, 32 tenants, a fleet-wide burst and a hot
// tenant) served on a K=4 shard plane and on one global controller over
// the identical trace. Every metric is virtual-time deterministic and
// gates at the strict tolerance; the win is sharded_slo_pct >=
// global_slo_pct with warm_hits > 0.
func BenchmarkShardedControl(b *testing.B) {
	tr, err := shard.DemoRegionTrace(11)
	if err != nil {
		b.Fatal(err)
	}
	var res *shard.CompareResult
	for i := 0; i < b.N; i++ {
		res, err = shard.Compare(shard.Config{Control: shard.DemoRegionControl(), Shards: 4}, tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	metrics := map[string]float64{
		"sharded_slo_pct":    res.Sharded.SLOAttainmentPct,
		"global_slo_pct":     res.GlobalSLOAttainmentPct,
		"sharded_violations": float64(res.Sharded.Total.Violations),
		"global_violations":  float64(res.Global.Fleet.Total.Violations),
		"sharded_p99_ms":     res.Sharded.Total.P99Ms,
		"global_p99_ms":      res.Global.Fleet.Total.P99Ms,
		"offered":            float64(res.Offered),
		"warm_hits":          float64(res.Sharded.WarmHits),
		"gossip_tx_entries":  float64(res.Sharded.GossipTxEntries),
		"gossip_rx_entries":  float64(res.Sharded.GossipRxEntries),
		"solve_assists":      float64(res.Sharded.SolveAssists),
		"deferred":           float64(res.Sharded.Deferred),
		"handoffs":           float64(len(res.Sharded.Handoffs)),
		"rounds":             float64(res.Sharded.Rounds),
		"peak_devices":       float64(res.Sharded.PeakDevices),
	}
	reportAndRecordControl(b, "BenchmarkShardedControl", metrics)
}
