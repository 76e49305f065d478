// Benchmark regression harness for the serving/fleet stack: solver
// incumbent quality and fleet throughput, the two numbers that must not
// regress as the scheduler and dispatcher evolve. Each benchmark reports
// its headline metrics via b.ReportMetric AND records them for
// BENCH_fleet.json (written by TestMain when any recording benchmark ran),
// seeding the perf trajectory — run
//
//	go test -bench 'Fleet|IncumbentQuality' -benchtime=1x .
//
// and diff BENCH_fleet.json to compare against the committed baseline.
package haxconn

import (
	"testing"

	"haxconn/internal/core"
	"haxconn/internal/fleet"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// fleetBenchTrace is the canonical two-tenant demo trace served by every
// fleet benchmark.
func fleetBenchTrace(b *testing.B) serve.Trace {
	b.Helper()
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 140, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
	}, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkFleetThroughput serves the demo trace across the three-device
// Orin+Xavier+SD865 pool under affinity placement — the configuration the
// acceptance test requires to beat single-SoC serving. Headline metrics:
// fleet requests per second, total p99, and SLO attainment; completed pins
// the work behind the rate.
func BenchmarkFleetThroughput(b *testing.B) {
	tr := fleetBenchTrace(b)
	var sum *fleet.Summary
	for i := 0; i < b.N; i++ {
		f, err := fleet.New(fleet.Config{
			Devices: []fleet.DeviceSpec{
				{Platform: "Orin"}, {Platform: "Xavier"}, {Platform: "SD865"},
			},
			Placement: fleet.Affinity(),
			Device:    serve.Config{SolverTimeScale: 50},
		})
		if err != nil {
			b.Fatal(err)
		}
		sum, err = f.Serve(tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	metrics := map[string]float64{
		"fleet_rps":          sum.Total.ThroughputRPS,
		"completed":          float64(sum.Total.Completed),
		"fleet_p99_ms":       sum.Total.P99Ms,
		"slo_attainment_pct": sum.SLOAttainmentPct,
		"violations":         float64(sum.Total.Violations),
	}
	reportAndRecord(b, "BenchmarkFleetThroughput", metrics)
}

// BenchmarkFleetPlacementGap measures what placement is worth on a
// heterogeneous pool: best-policy p99 versus blind round-robin p99 on
// identical traffic. A shrinking gap means round-robin got lucky or the
// load-aware policies regressed.
func BenchmarkFleetPlacementGap(b *testing.B) {
	tr := fleetBenchTrace(b)
	var cmp *fleet.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = fleet.Compare(fleet.Config{
			Devices: []fleet.DeviceSpec{
				{Platform: "Orin"}, {Platform: "Xavier"}, {Platform: "SD865"},
			},
			Device: serve.Config{SolverTimeScale: 50},
		}, tr)
		if err != nil {
			b.Fatal(err)
		}
	}
	roundRobin := cmp.Fleets[0]
	best := cmp.Best()
	metrics := map[string]float64{
		"best_p99_ms":        best.Total.P99Ms,
		"round_robin_p99_ms": roundRobin.Total.P99Ms,
		"placement_gap_x":    roundRobin.Total.P99Ms / best.Total.P99Ms,
		"single_soc_p99_ms":  cmp.Single.Total.P99Ms,
	}
	reportAndRecord(b, "BenchmarkFleetPlacementGap", metrics)
}

// BenchmarkSolverIncumbentQuality tracks the anytime solver's improvement
// stream on the canonical serving mix: how many incumbents it finds, how
// much the final schedule improves on the first deployable one, and how
// much search work the optimum costs. The serving stack's upgrade path
// depends on this stream staying rich and cheap.
func BenchmarkSolverIncumbentQuality(b *testing.B) {
	p, _ := soc.PlatformByName("Orin")
	req := core.Request{
		Platform:  p,
		Networks:  []string{"ResNet152", "VGG19"},
		Objective: schedule.MinMaxLatency,
	}
	var any *coreAnytime
	for i := 0; i < b.N; i++ {
		prob, pr, err := core.Prepare(req)
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.AnytimeFromProfile(req, prob, pr)
		if err != nil {
			b.Fatal(err)
		}
		any = &coreAnytime{a.History[0].Cost, a.Cost, len(a.History), a.History[len(a.History)-1].Nodes, a.Stats.Nodes}
	}
	metrics := map[string]float64{
		"incumbents":      float64(any.incumbents),
		"first_cost_ms":   any.firstCost,
		"best_cost_ms":    any.bestCost,
		"improvement_pct": 100 * (1 - any.bestCost/any.firstCost),
		"nodes_to_best":   float64(any.nodesToBest),
		"nodes_total":     float64(any.nodesTotal),
	}
	reportAndRecord(b, "BenchmarkSolverIncumbentQuality", metrics)
}

type coreAnytime struct {
	firstCost, bestCost     float64
	incumbents              int
	nodesToBest, nodesTotal int
}
