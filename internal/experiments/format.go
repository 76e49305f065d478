package experiments

import (
	"fmt"
	"strings"

	"haxconn/internal/profiler"
)

// FormatFig1 renders the case study.
func FormatFig1(r *Fig1Result) string {
	var b strings.Builder
	b.WriteString("Fig. 1 — VGG-19 + ResNet101 on Xavier AGX (paper: 11.3 / 10.6 / 8.7 ms)\n")
	fmt.Fprintf(&b, "  Case 1  serial on GPU            %7.2f ms\n", r.SerialGPUMs)
	fmt.Fprintf(&b, "  Case 2  naive concurrent GPU&DLA %7.2f ms\n", r.NaiveConcurrentMs)
	fmt.Fprintf(&b, "  Case 3  HaX-CoNN layer-level     %7.2f ms\n", r.HaXCoNNMs)
	fmt.Fprintf(&b, "  schedule: %s\n", r.Schedule)
	return b.String()
}

// FormatTable2 renders the GoogleNet layer-group characterization.
func FormatTable2(rows []profiler.Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2 — GoogleNet layer groups on Xavier (E = execution, T = transition)\n")
	b.WriteString("Group      GPU(ms)  DLA(ms)  D/G   T GtoD(ms)  T DtoG(ms)  MemThr(%)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7.3f  %7.3f  %4.2f  %9.3f  %9.3f  %8.1f\n",
			r.Label, r.GPUMs, r.DLAMs, r.Ratio, r.GtoDMs, r.DtoGMs, r.MemThroughPc)
	}
	return b.String()
}

// FormatTable6 renders the ten-experiment comparison.
func FormatTable6(rows []*T6Row) string {
	var b strings.Builder
	b.WriteString("Table 6 — Scenarios 2/3/4 vs baselines (measured on the simulator)\n")
	b.WriteString("Exp Plat    Goal       Networks                                   Best-baseline       HaX-CoNN            Impr(lat/fps)  Paper\n")
	for _, r := range rows {
		base := r.Baselines[r.BestBaseline]
		fmt.Fprintf(&b, "%2d  %-7s %-10s %-42s %-8s %6.2fms %5.1f  %7.2fms %6.1f  %5.1f%% /%5.1f%%  %2.0f%% /%2.0f%%\n",
			r.Def.Exp, r.Def.Platform, r.Def.Goal, strings.Join(r.Def.Networks, "+"),
			r.BestBaseline, base.LatencyMs, base.FPS,
			r.HaX.LatencyMs, r.HaX.FPS,
			100*r.ImprLat, 100*r.ImprFPS,
			100*r.Def.PaperImprLat, 100*r.Def.PaperImprFPS)
	}
	return b.String()
}

// FormatTable5 renders standalone runtimes with paper references.
func FormatTable5(rows []T5Row) string {
	var b strings.Builder
	b.WriteString("Table 5 — standalone runtimes, measured (paper) in ms\n")
	b.WriteString("Network      Orin GPU          Orin DLA          Xavier GPU        Xavier DLA\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6.2f (%5.2f)    %6.2f (%5.2f)    %6.2f (%5.2f)    %6.2f (%5.2f)\n",
			r.Network, r.OrinGPUMs, r.PaperOrinGPU, r.OrinDLAMs, r.PaperOrinDLA,
			r.XavierGPUMs, r.PaperXavierGPU, r.XavierDLAMs, r.PaperXavierDLA)
	}
	return b.String()
}

// FormatFig5 renders the Scenario 1 throughput comparison.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Fig. 5 — Scenario 1: two instances of the same DNN on Orin (FPS)\n")
	b.WriteString("Network      GPU-only  GPU&DLA   Mensa     HaX-CoNN  Improvement\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.1f %8.1f %8.1f %9.1f   %+5.1f%%\n",
			r.Network, r.GPUOnly, r.NaiveFPS, r.MensaFPS, r.HaXFPS, r.ImprPct)
	}
	return b.String()
}

// FormatFig6 renders the contention slowdown comparison.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — slowdown of GoogleNet on Xavier GPU with a co-runner on DLA\n")
	b.WriteString("Co-runner    naive     HaX-CoNN\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6.2fx   %6.2fx\n", r.CoRunner, r.NaiveSlowdown, r.HaXSlowdown)
	}
	return b.String()
}

// FormatFig7 renders the dynamic convergence timeline.
func FormatFig7(phases []Fig7Phase) string {
	var b strings.Builder
	b.WriteString("Fig. 7 — D-HaX-CoNN dynamic schedule improvement (Xavier)\n")
	for i, ph := range phases {
		fmt.Fprintf(&b, "phase %d: %s  baseline %.2f ms -> optimal %.2f ms\n",
			i+1, strings.Join(ph.Networks, "+"), ph.BaselineMs, ph.OptimalMs)
		for _, u := range ph.Updates {
			fmt.Fprintf(&b, "  after %d nodes (%.3f ms): %.2f ms\n", u.Nodes, u.DeployMs, u.LatencyMs)
		}
	}
	return b.String()
}

// FormatTable7 renders the solver overhead table.
func FormatTable7(rows []T7Row) string {
	var b strings.Builder
	b.WriteString("Table 7 — on-line solver overhead on concurrent DNN execution (Orin, paper <2%)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %5.2f%%\n", r.Network, r.OverheadPc)
	}
	return b.String()
}

// FormatTable8 renders the exhaustive pair matrix.
func FormatTable8(cells []T8Cell) string {
	var b strings.Builder
	b.WriteString("Table 8 — all DNN pairs on Orin: best baseline / HaX-CoNN FPS ratio\n")
	for _, c := range cells {
		mark := fmt.Sprintf("%.2f", c.Ratio)
		if c.Ratio <= 1.0001 {
			mark = "x   " // HaX-CoNN fell back to the baseline schedule
		}
		fmt.Fprintf(&b, "%-12s x %-12s  %-8s %s  (iters %d:%d)\n",
			c.Net1, c.Net2, c.BestBaseline, mark, c.Iter1, c.Iter2)
	}
	return b.String()
}

// FormatFig3 renders the EMC utilization grid.
func FormatFig3(pts []Fig3Point) string {
	var b strings.Builder
	b.WriteString("Fig. 3 — EMC utilization of conv layers on Orin (%)\n")
	b.WriteString("bench     GPU     DLA\n")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%-8s %6.1f  %6.1f\n", pt.Name, pt.GPUPct, pt.DLAPct)
	}
	return b.String()
}

// FormatFig4 renders the contention-interval timeline.
func FormatFig4(r *Fig4Result) string {
	var b strings.Builder
	b.WriteString("Fig. 4 — contention intervals of five layers on three accelerators\n")
	for _, iv := range r.Intervals {
		fmt.Fprintf(&b, "  [%6.2f, %6.2f] ms  demand %5.1f GB/s  active: %s\n",
			iv.StartMs, iv.EndMs, iv.TotalDemand, strings.Join(iv.Active, ", "))
	}
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "  %-4s slowdown %.2fx (%.2f..%.2f ms)\n", rec.Label, rec.Slowdown, rec.StartMs, rec.EndMs)
	}
	return b.String()
}
