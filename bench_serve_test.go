// Benchmark regression harness for the dispatch path: single-device
// serving throughput under fifo and demand-balance mix forming on the
// canonical mixed-memory-demand trace. The headline metrics — per-policy
// requests per second and p99, plus the demand-balance p99 win over fifo
// — must not regress as the mix-former layer evolves. Each benchmark
// reports via b.ReportMetric AND records for BENCH_serve.json (written by
// TestMain), seeding the dispatcher perf trajectory — run
//
//	go test -bench ServeMix -benchtime=1x .
//
// and diff BENCH_serve.json against the committed baseline (the CI
// bench-regression job gates it with cmd/benchdiff).
package haxconn

import (
	"testing"

	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// serveBenchTrace is the canonical mixed-memory-demand trace
// (serve.MixedDemandTenants), the same traffic the acceptance tests and
// the cmd/serve demo use.
func serveBenchTrace(b *testing.B) serve.Trace {
	b.Helper()
	tr, err := serve.Generate(serve.MixedDemandTenants(), 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkServeMixFormers serves the mixed-demand trace under fifo,
// demand-balance and contention-aware mix forming on one Orin. Headline
// metrics: per-policy throughput and p99, the demand-balance improvement
// the acceptance test asserts — a shrinking p99_impr_pct means batch
// formation stopped paying for itself — and the contention-aware leg's
// p99 and violation win over fifo (its model-scored dispatch cost shows
// up in the benchmark's own wall time). balance_rounds pins the number of
// dispatch rounds the demand-balance leg runs.
func BenchmarkServeMixFormers(b *testing.B) {
	tr := serveBenchTrace(b)
	var legs []serve.Leg
	for _, mix := range []string{serve.MixFIFO, serve.MixDemandBalance, serve.MixContentionAware} {
		legs = append(legs, serve.RuntimeLeg(mix, serve.Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: mix}))
	}
	var rows []serve.Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = serve.Compare(tr, legs...); err != nil {
			b.Fatal(err)
		}
	}
	fifo, db, ca := rows[0].Total, rows[1].Total, rows[2].Total
	// The raw per-policy rps already gate throughput; the derived
	// throughput delta is a near-zero difference of large numbers and
	// would trip the relative-tolerance gate on any one-request shift.
	metrics := map[string]float64{
		"fifo_rps":                      fifo.ThroughputRPS,
		"fifo_p99_ms":                   fifo.P99Ms,
		"balance_rps":                   db.ThroughputRPS,
		"balance_p99_ms":                db.P99Ms,
		"balance_rounds":                float64(rows[1].Summary.(*serve.Summary).Rounds),
		"p99_impr_pct":                  rows[1].P99ImprPct,
		"violations_avoided":            float64(rows[1].ViolationsAvoided),
		"contention_rps":                ca.ThroughputRPS,
		"contention_p99_ms":             ca.P99Ms,
		"contention_violations_avoided": float64(rows[2].ViolationsAvoided),
	}
	reportAndRecordServe(b, "BenchmarkServeMixFormers", metrics)
}
