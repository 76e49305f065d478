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
	var rows []serve.Row
	for i := 0; i < b.N; i++ {
		legs, err := control.Legs(control.Config{
			Fleet: fleet.Config{
				Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
				Device:  serve.Config{SolverTimeScale: 50},
			},
			MaxDevices:    3,
			GrowPlatforms: []string{"Xavier", "SD865"},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rows, err = serve.Compare(tr, legs...); err != nil {
			b.Fatal(err)
		}
	}
	static, ctrl := rows[0], rows[1]
	sum := ctrl.Summary.(*control.Summary)
	metrics := map[string]float64{
		"controlled_p99_ms":     ctrl.Total.P99Ms,
		"static_p99_ms":         static.Total.P99Ms,
		"controlled_violations": float64(ctrl.Total.Violations),
		"static_violations":     float64(static.Total.Violations),
		"controlled_device_ms":  ctrl.DeviceMs,
		"static_device_ms":      static.DeviceMs,
		"peak_devices":          float64(ctrl.PeakDevices),
		"scale_events":          float64(len(sum.Scale)),
		"migrations":            float64(len(sum.Migrations)),
		"seeded_entries":        float64(sum.SeededEntries),
		"win_count":             float64(controlWins(static, ctrl)),
	}
	reportAndRecordControl(b, "BenchmarkControlCompare", metrics)
}

// controlWins counts the metrics the controlled fleet beats its static
// baseline on: total p99 latency, SLO violations and device-time.
func controlWins(static, ctrl serve.Row) int {
	n := 0
	for _, won := range []bool{
		ctrl.Total.P99Ms < static.Total.P99Ms,
		ctrl.Total.Violations < static.Total.Violations,
		ctrl.DeviceMs < static.DeviceMs,
	} {
		if won {
			n++
		}
	}
	return n
}

// BenchmarkShardedControl is the sharded-control win condition: the
// region-scale demo (48 Orins, 32 tenants, a fleet-wide burst and a hot
// tenant) served on one global controller and on a K=4 shard plane over
// the identical trace. Every metric is virtual-time deterministic and
// gates at the strict tolerance; the win is sharded_slo_pct >=
// global_slo_pct with warm_hits > 0.
func BenchmarkShardedControl(b *testing.B) {
	tr, err := shard.DemoRegionTrace(11)
	if err != nil {
		b.Fatal(err)
	}
	var rows []serve.Row
	for i := 0; i < b.N; i++ {
		legs, err := shard.Legs(shard.Config{Control: shard.DemoRegionControl(), Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		if rows, err = serve.Compare(tr, legs...); err != nil {
			b.Fatal(err)
		}
	}
	global, sharded := rows[0], rows[1].Summary.(*shard.Summary)
	metrics := map[string]float64{
		"sharded_slo_pct":    sharded.SLOAttainmentPct,
		"global_slo_pct":     global.SLOAttainmentPct,
		"sharded_violations": float64(sharded.Total.Violations),
		"global_violations":  float64(global.Total.Violations),
		"sharded_p99_ms":     sharded.Total.P99Ms,
		"global_p99_ms":      global.Total.P99Ms,
		"offered":            float64(len(tr)),
		"warm_hits":          float64(sharded.WarmHits),
		"gossip_tx_entries":  float64(sharded.GossipTxEntries),
		"gossip_rx_entries":  float64(sharded.GossipRxEntries),
		"solve_assists":      float64(sharded.SolveAssists),
		"deferred":           float64(sharded.Deferred),
		"handoffs":           float64(len(sharded.Handoffs)),
		"rounds":             float64(sharded.Rounds),
		"peak_devices":       float64(sharded.PeakDevices),
	}
	reportAndRecordControl(b, "BenchmarkShardedControl", metrics)
}
