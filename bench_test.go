// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 5), plus ablations of its design choices: contention modeling,
// transition costs and layer-group granularity. Each benchmark reports the
// artifact's headline metric via b.ReportMetric; run
// `go test -bench=. -benchmem` and compare against the tables
// `go run ./cmd/experiments` regenerates (README "Quickstart").
package haxconn

import (
	"testing"

	"haxconn/internal/experiments"
	"haxconn/internal/nn"
	"haxconn/internal/perf"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
	"haxconn/internal/solver"

	"haxconn/internal/contention"
	"haxconn/internal/profiler"
	"haxconn/internal/sim"
)

// BenchmarkFig1CaseStudy regenerates the motivating case study: VGG-19 +
// ResNet101 on Xavier under serial-GPU, naive-concurrent and HaX-CoNN
// execution (paper: 11.3 / 10.6 / 8.7 ms).
func BenchmarkFig1CaseStudy(b *testing.B) {
	var r *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SerialGPUMs, "case1_ms")
	b.ReportMetric(r.NaiveConcurrentMs, "case2_ms")
	b.ReportMetric(r.HaXCoNNMs, "case3_ms")
}

// BenchmarkTable2LayerGroups regenerates the GoogleNet layer-group
// characterization (paper: D/G ratios 1.40x-2.02x).
func BenchmarkTable2LayerGroups(b *testing.B) {
	var rows []profiler.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	minR, maxR := rows[0].Ratio, rows[0].Ratio
	for _, r := range rows {
		if r.Ratio < minR {
			minR = r.Ratio
		}
		if r.Ratio > maxR {
			maxR = r.Ratio
		}
	}
	b.ReportMetric(minR, "DG_ratio_min")
	b.ReportMetric(maxR, "DG_ratio_max")
}

// BenchmarkFig3EMCUtilization regenerates the conv microbenchmark grid
// (paper: utilization rises with input size, falls with filter size).
func BenchmarkFig3EMCUtilization(b *testing.B) {
	var pts []experiments.Fig3Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig3()
	}
	b.ReportMetric(pts[0].GPUPct, "i1f1_gpu_pct")
	b.ReportMetric(pts[len(pts)-1].GPUPct, "i5f5_gpu_pct")
}

// BenchmarkFig4ContentionIntervals regenerates the contention-interval
// illustration (non-uniform slowdowns across intervals).
func BenchmarkFig4ContentionIntervals(b *testing.B) {
	var r *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Intervals)), "intervals")
}

// BenchmarkTable5Standalone regenerates standalone runtimes for the
// 10-network evaluation set on Orin and Xavier.
func BenchmarkTable5Standalone(b *testing.B) {
	var rows []experiments.T5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table5()
	}
	var ratioSum float64
	var n int
	for _, r := range rows {
		if r.PaperOrinGPU > 0 {
			ratioSum += r.OrinGPUMs / r.PaperOrinGPU
			n++
		}
	}
	b.ReportMetric(ratioSum/float64(n), "orin_gpu_vs_paper")
}

// BenchmarkFig5Scenario1 regenerates the same-DNN throughput experiments
// on Orin (paper: up to 29% FPS gain).
func BenchmarkFig5Scenario1(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	best := 0.0
	for _, r := range rows {
		if r.ImprPct > best {
			best = r.ImprPct
		}
	}
	b.ReportMetric(best, "max_fps_gain_pct")
}

// BenchmarkTable6Scenarios regenerates the ten headline experiments
// (paper: latency/throughput improvements up to 32%/29%).
func BenchmarkTable6Scenarios(b *testing.B) {
	var rows []*experiments.T6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxLat, maxFPS float64
	for _, r := range rows {
		if r.ImprLat > maxLat {
			maxLat = r.ImprLat
		}
		if r.ImprFPS > maxFPS {
			maxFPS = r.ImprFPS
		}
	}
	b.ReportMetric(100*maxLat, "max_lat_impr_pct")
	b.ReportMetric(100*maxFPS, "max_fps_impr_pct")
}

// BenchmarkFig6Slowdown regenerates GoogleNet's contention slowdown with
// DLA co-runners (paper: HaX-CoNN significantly reduces the slowdown).
func BenchmarkFig6Slowdown(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstNaive, worstHax float64
	for _, r := range rows {
		if r.NaiveSlowdown > worstNaive {
			worstNaive = r.NaiveSlowdown
		}
		if r.HaXSlowdown > worstHax {
			worstHax = r.HaXSlowdown
		}
	}
	b.ReportMetric(worstNaive, "naive_slowdown_max")
	b.ReportMetric(worstHax, "hax_slowdown_max")
}

// BenchmarkFig7Dynamic regenerates the D-HaX-CoNN convergence timeline
// (paper: converges to the optimum within seconds of solver time).
func BenchmarkFig7Dynamic(b *testing.B) {
	var phases []experiments.Fig7Phase
	for i := 0; i < b.N; i++ {
		var err error
		phases, err = experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report phase 1's improvement from the naive start to the optimum.
	ph := phases[0]
	b.ReportMetric(ph.BaselineMs, "phase1_start_ms")
	b.ReportMetric(ph.OptimalMs, "phase1_opt_ms")
	b.ReportMetric(float64(len(ph.Updates)), "phase1_updates")
}

// BenchmarkTable7SolverOverhead regenerates the on-line solver overhead
// experiment (paper: <2% slowdown).
func BenchmarkTable7SolverOverhead(b *testing.B) {
	var rows []experiments.T7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if r.OverheadPc > worst {
			worst = r.OverheadPc
		}
	}
	b.ReportMetric(worst, "max_overhead_pct")
}

// BenchmarkTable8AllPairs regenerates the exhaustive 55-cell pairwise
// matrix on Orin (paper: improvement on 35 of 45 off-diagonal pairs,
// fallback to GPU-only on the rest).
func BenchmarkTable8AllPairs(b *testing.B) {
	var cells []experiments.T8Cell
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = experiments.Table8()
		if err != nil {
			b.Fatal(err)
		}
	}
	improved, fallback := 0, 0
	for _, c := range cells {
		if c.Ratio > 1.0001 {
			improved++
		} else {
			fallback++
		}
	}
	b.ReportMetric(float64(improved), "pairs_improved")
	b.ReportMetric(float64(fallback), "pairs_fallback")
}

// BenchmarkAblationNoContention measures the cost of removing the
// contention model from the solver's objective.
func BenchmarkAblationNoContention(b *testing.B) {
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationNoContention("Orin")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PenaltyPct, "penalty_pct")
}

// BenchmarkAblationNoTransitionCost measures the cost of a transition-blind
// solve evaluated with real transition costs.
func BenchmarkAblationNoTransitionCost(b *testing.B) {
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.AblationNoTransitionCost("Orin")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PenaltyPct, "penalty_pct")
}

// BenchmarkAblationGranularity sweeps the layer-group cap.
func BenchmarkAblationGranularity(b *testing.B) {
	var pts []experiments.AblationGranularityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationGranularity("Xavier", []int{2, 6, 12})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].MeasuredMs, "groups2_ms")
	b.ReportMetric(pts[len(pts)-1].MeasuredMs, "groups12_ms")
}

// BenchmarkContentionReduction quantifies the oversaturated-time
// reduction (paper headline: up to 45%).
func BenchmarkContentionReduction(b *testing.B) {
	var cr *experiments.ContentionReduction
	for i := 0; i < b.N; i++ {
		var err error
		cr, err = experiments.MeasureContentionReduction("Xavier")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cr.ReductionPct, "reduction_pct")
}

// --- microbenchmarks of the substrates ---

// BenchmarkSolverBB measures one optimal two-network solve end to end.
func BenchmarkSolverBB(b *testing.B) {
	p := soc.Orin()
	prob := &schedule.Problem{Platform: p, Items: []schedule.Item{
		{Net: nn.MustByName("GoogleNet")}, {Net: nn.MustByName("ResNet101")},
	}}
	pr, err := profiler.Characterize(prob, profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := contention.FitPCCS(p.SatBW(), 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := solver.OptimizeBB(prob, pr, solver.Config{Model: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEvaluate measures one ground-truth simulation of a
// two-network schedule.
func BenchmarkSimEvaluate(b *testing.B) {
	p := soc.Orin()
	prob := &schedule.Problem{Platform: p, Items: []schedule.Item{
		{Net: nn.MustByName("GoogleNet")}, {Net: nn.MustByName("ResNet101")},
	}}
	pr, err := profiler.Characterize(prob, profiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := schedule.Uniform(pr, 0)
	gt := sim.GroundTruth{SatBW: p.SatBW()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Evaluate(prob, pr, s, gt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterize measures the offline profiling step on a warm
// memo: after the first iteration every call assembles its Profile from
// the profiler's memoized tables. BenchmarkCharacterizeCold in
// internal/profiler measures the cold cost.
func BenchmarkCharacterize(b *testing.B) {
	p := soc.Orin()
	prob := &schedule.Problem{Platform: p, Items: []schedule.Item{
		{Net: nn.MustByName("Inception")}, {Net: nn.MustByName("ResNet152")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.Characterize(prob, profiler.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfLatency measures the per-layer roofline model.
func BenchmarkPerfLatency(b *testing.B) {
	a := soc.Orin().GPU()
	net := nn.MustByName("ResNet152")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perf.NetworkLatencyMs(a, net)
	}
}

// BenchmarkQueueingAnalysis measures the Eq. 9 queueing residual per
// scheduler (the accelerator over-subscription Sec. 5.2 attributes to
// Herald/H2H).
func BenchmarkQueueingAnalysis(b *testing.B) {
	var qa *experiments.QueueingAnalysis
	for i := 0; i < b.N; i++ {
		var err error
		qa, err = experiments.MeasureQueueing("Xavier")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(qa.QueueingMs["GPU-only"], "gpuonly_queue_ms")
	b.ReportMetric(qa.QueueingMs["Herald"], "herald_queue_ms")
	b.ReportMetric(qa.QueueingMs["HaX-CoNN"], "hax_queue_ms")
}
