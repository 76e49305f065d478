package experiments

import (
	"strings"
	"testing"

	"haxconn/internal/solver"
)

func TestFig1Shape(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// The case-study ordering of the paper: layer-level contention-aware
	// mapping beats both naive regimes.
	if r.HaXCoNNMs >= r.SerialGPUMs {
		t.Errorf("HaX-CoNN (%.2f) should beat serial GPU (%.2f)", r.HaXCoNNMs, r.SerialGPUMs)
	}
	if out := FormatFig1(r); !strings.Contains(out, "Case 3") {
		t.Error("formatter output incomplete")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) < 8 {
		t.Fatalf("%d rows", len(rows))
	}
	if out := FormatTable2(rows); !strings.Contains(out, "GoogleNet layer groups") {
		t.Error("formatter output incomplete")
	}
}

func TestFig3Shape(t *testing.T) {
	pts := Fig3()
	if len(pts) != 25 {
		t.Fatalf("%d points, want 25", len(pts))
	}
	// The paper's observation: GPU and DLA utilizations are correlated and
	// both positive.
	for _, pt := range pts {
		if pt.GPUPct <= 0 || pt.DLAPct <= 0 {
			t.Errorf("%s: non-positive utilization", pt.Name)
		}
	}
	if out := FormatFig3(pts); !strings.Contains(out, "i5_f5") {
		t.Error("formatter output incomplete")
	}
}

func TestFig4NonUniformSlowdowns(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Intervals) < 3 {
		t.Fatalf("expected several contention intervals, got %d", len(r.Intervals))
	}
	if len(r.Records) != 4 {
		t.Fatalf("expected 4 task records, got %d", len(r.Records))
	}
	var anySlow bool
	for _, rec := range r.Records {
		if rec.Slowdown > 1.01 {
			anySlow = true
		}
	}
	if !anySlow {
		t.Error("no task experienced contention slowdown")
	}
	if out := FormatFig4(r); !strings.Contains(out, "L11") {
		t.Error("formatter output incomplete")
	}
}

func TestTable5Shape(t *testing.T) {
	rows := Table5()
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r.OrinGPUMs <= 0 || r.OrinDLAMs <= r.OrinGPUMs {
			t.Errorf("%s: Orin GPU %.2f / DLA %.2f (DLA must be slower)", r.Network, r.OrinGPUMs, r.OrinDLAMs)
		}
		if r.XavierGPUMs <= r.OrinGPUMs {
			t.Errorf("%s: Xavier GPU (%.2f) must be slower than Orin GPU (%.2f)", r.Network, r.XavierGPUMs, r.OrinGPUMs)
		}
	}
	if out := FormatTable5(rows); !strings.Contains(out, "VGG19") {
		t.Error("formatter output incomplete")
	}
}

func TestRunT6SingleExperiment(t *testing.T) {
	defs := Table6Defs()
	if len(defs) != 10 {
		t.Fatalf("%d definitions, want 10", len(defs))
	}
	row, err := RunT6(defs[0]) // exp 1: Xavier VGG19+ResNet152
	if err != nil {
		t.Fatal(err)
	}
	if row.ImprLat < 0.05 {
		t.Errorf("exp 1 improvement %.1f%%, expected a clear win (paper: 23%%)", 100*row.ImprLat)
	}
	if row.HaX.LatencyMs <= 0 {
		t.Error("no measured latency")
	}
	if len(row.Baselines) != 5 {
		t.Errorf("%d baselines", len(row.Baselines))
	}
}

func TestRunT6Exp4NoRegressions(t *testing.T) {
	// Experiment 4 is the paper's fallback case: HaX-CoNN identifies that
	// layer-level mapping does not help and must not be worse.
	row, err := RunT6(Table6Defs()[3])
	if err != nil {
		t.Fatal(err)
	}
	if row.ImprFPS < -0.01 {
		t.Errorf("exp 4: HaX-CoNN regressed by %.1f%%", -100*row.ImprFPS)
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig6CoRunners) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.NaiveSlowdown < 1 {
			t.Errorf("%s: naive slowdown %.2f < 1", r.CoRunner, r.NaiveSlowdown)
		}
		// HaX-CoNN significantly reduces the contention slowdown.
		if r.HaXSlowdown > r.NaiveSlowdown*1.05 {
			t.Errorf("%s: HaX slowdown %.2f above naive %.2f", r.CoRunner, r.HaXSlowdown, r.NaiveSlowdown)
		}
	}
	if out := FormatFig6(rows); !strings.Contains(out, "VGG19") {
		t.Error("formatter output incomplete")
	}
}

func TestTable7OverheadSmall(t *testing.T) {
	rows, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table7Networks) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.OverheadPc < 0 {
			t.Errorf("%s: negative overhead %.2f%%", r.Network, r.OverheadPc)
		}
		// Paper: the solver slows concurrent DNN execution by no more
		// than 2%; allow a little headroom for the simulator.
		if r.OverheadPc > 4 {
			t.Errorf("%s: overhead %.2f%% far above the paper's <2%%", r.Network, r.OverheadPc)
		}
	}
	if out := FormatTable7(rows); !strings.Contains(out, "MobileNet") {
		t.Error("formatter output incomplete")
	}
}

func TestBalanceIterations(t *testing.T) {
	cases := []struct {
		l1, l2 float64
		w1, w2 int
	}{
		{1, 1, 1, 1},
		{1, 3, 3, 1}, // net1 is 3x faster: run it 3x
		{3, 1, 1, 3},
		{1, 100, 8, 1}, // clamped
		{0, 5, 1, 1},   // degenerate
	}
	for _, c := range cases {
		g1, g2 := balanceIterations(c.l1, c.l2)
		if g1 != c.w1 || g2 != c.w2 {
			t.Errorf("balance(%g,%g) = (%d,%d), want (%d,%d)", c.l1, c.l2, g1, g2, c.w1, c.w2)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	nc, err := AblationNoContention("Xavier")
	if err != nil {
		t.Fatal(err)
	}
	if nc.PenaltyPct < -2 {
		t.Errorf("contention-unaware variant measured better by %.1f%% — model adds no value?", -nc.PenaltyPct)
	}
	nt, err := AblationNoTransitionCost("Xavier")
	if err != nil {
		t.Fatal(err)
	}
	if nt.PenaltyPct < -2 {
		t.Errorf("transition-blind variant measured better by %.1f%%", -nt.PenaltyPct)
	}
	pts, err := AblationGranularity("Xavier", []int{2, 6, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d granularity points", len(pts))
	}
	// Finer granularity never hurts the optimum (more candidate cuts).
	if pts[2].MeasuredMs > pts[0].MeasuredMs*1.05 {
		t.Errorf("12 groups (%.2f ms) much worse than 2 groups (%.2f ms)", pts[2].MeasuredMs, pts[0].MeasuredMs)
	}
}

func TestContentionReduction(t *testing.T) {
	r, err := MeasureContentionReduction("Xavier")
	if err != nil {
		t.Fatal(err)
	}
	if r.NaiveOversatMs <= 0 {
		t.Skip("naive schedule does not oversaturate on this calibration")
	}
	if r.ReductionPct < 0 {
		t.Errorf("HaX-CoNN increased oversaturated time by %.1f%%", -r.ReductionPct)
	}
}

func TestFig7Convergence(t *testing.T) {
	phases, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("%d phases, want 3", len(phases))
	}
	for i, ph := range phases {
		if len(ph.Updates) == 0 {
			t.Fatalf("phase %d: no schedule updates", i)
		}
		for j, u := range ph.Updates {
			if j > 0 && u.Nodes < ph.Updates[j-1].Nodes {
				t.Errorf("phase %d: update %d at %d nodes, before update %d at %d", i, j, u.Nodes, j-1, ph.Updates[j-1].Nodes)
			}
			if u.DeployMs != float64(u.Nodes)/solver.NodesPerMs {
				t.Errorf("phase %d: update %d deploys at %g ms, want %d nodes / %d", i, j, u.DeployMs, u.Nodes, solver.NodesPerMs)
			}
		}
		last := ph.Updates[len(ph.Updates)-1]
		if last.LatencyMs > ph.OptimalMs+1e-6 {
			t.Errorf("phase %d: final update %.2f ms above optimal %.2f ms", i, last.LatencyMs, ph.OptimalMs)
		}
		if ph.OptimalMs > ph.BaselineMs {
			t.Errorf("phase %d: optimal %.2f ms worse than baseline %.2f ms", i, ph.OptimalMs, ph.BaselineMs)
		}
	}
	if out := FormatFig7(phases); !strings.Contains(out, "phase 1") {
		t.Error("formatter output incomplete")
	}
}

func TestMeasureQueueing(t *testing.T) {
	qa, err := MeasureQueueing("Xavier")
	if err != nil {
		t.Fatal(err)
	}
	if len(qa.QueueingMs) != 6 {
		t.Fatalf("%d schedulers measured", len(qa.QueueingMs))
	}
	// GPU-only serializes everything: it must queue more than HaX-CoNN.
	if qa.QueueingMs["GPU-only"] <= qa.QueueingMs["HaX-CoNN"] {
		t.Errorf("GPU-only queueing %.2f not above HaX-CoNN %.2f",
			qa.QueueingMs["GPU-only"], qa.QueueingMs["HaX-CoNN"])
	}
	for name, q := range qa.QueueingMs {
		if q < 0 {
			t.Errorf("%s: negative queueing %g", name, q)
		}
	}
}
