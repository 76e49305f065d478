package haxconn

import (
	"testing"

	"haxconn/internal/experiments"
)

// TestReproductionGate asserts, in one place, every shape claim this
// repository makes against the paper (the artifacts cmd/experiments
// prints). It is the test a reviewer would run to check the reproduction
// still holds after a change to the substrate or the scheduler.
func TestReproductionGate(t *testing.T) {
	t.Run("Fig1Ordering", func(t *testing.T) {
		r, err := experiments.Fig1()
		if err != nil {
			t.Fatal(err)
		}
		// Paper: 11.3 > 10.6 > 8.7 — layer-level beats naive beats serial.
		if !(r.HaXCoNNMs < r.NaiveConcurrentMs && r.NaiveConcurrentMs < r.SerialGPUMs) {
			t.Errorf("case ordering broken: serial %.2f, naive %.2f, hax %.2f",
				r.SerialGPUMs, r.NaiveConcurrentMs, r.HaXCoNNMs)
		}
	})

	t.Run("Table6NeverWorseAndHeadlineGains", func(t *testing.T) {
		rows, err := experiments.Table6()
		if err != nil {
			t.Fatal(err)
		}
		var maxLat float64
		for _, r := range rows {
			if r.ImprLat < -0.02 && r.Def.Goal.String() == "MinLatency" {
				t.Errorf("exp %d: HaX-CoNN regressed latency by %.1f%%", r.Def.Exp, -100*r.ImprLat)
			}
			if r.ImprFPS < -0.02 && r.Def.Goal.String() == "MaxFPS" {
				t.Errorf("exp %d: HaX-CoNN regressed FPS by %.1f%%", r.Def.Exp, -100*r.ImprFPS)
			}
			if r.ImprLat > maxLat {
				maxLat = r.ImprLat
			}
		}
		// Paper headline: latency improvements up to 32%. Our substrate
		// must show double-digit gains somewhere.
		if maxLat < 0.10 {
			t.Errorf("best latency improvement only %.1f%% — headline effect lost", 100*maxLat)
		}
	})

	t.Run("Fig6ContentionReduced", func(t *testing.T) {
		rows, err := experiments.Fig6()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.HaXSlowdown > r.NaiveSlowdown+0.02 {
				t.Errorf("%s: HaX slowdown %.2f above naive %.2f", r.CoRunner, r.HaXSlowdown, r.NaiveSlowdown)
			}
		}
	})

	t.Run("Table7OverheadUnderTwoPercentRegime", func(t *testing.T) {
		rows, err := experiments.Table7()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.OverheadPc > 4 {
				t.Errorf("%s: solver overhead %.2f%% far above the paper's <2%%", r.Network, r.OverheadPc)
			}
		}
	})

	t.Run("AblationContentionModelMatters", func(t *testing.T) {
		// Removing the contention model must cost measurable ground-truth
		// performance on the Orin exp-6 pair (the paper's core claim).
		r, err := experiments.AblationNoContention("Orin")
		if err != nil {
			t.Fatal(err)
		}
		if r.PenaltyPct < 2 {
			t.Errorf("contention-unaware penalty only %.1f%% — the model is not earning its keep", r.PenaltyPct)
		}
	})

	t.Run("QueueingEliminated", func(t *testing.T) {
		qa, err := experiments.MeasureQueueing("Xavier")
		if err != nil {
			t.Fatal(err)
		}
		if qa.QueueingMs["HaX-CoNN"] > qa.QueueingMs["GPU-only"]/2 {
			t.Errorf("HaX-CoNN queueing %.2f ms not well below GPU-only %.2f ms",
				qa.QueueingMs["HaX-CoNN"], qa.QueueingMs["GPU-only"])
		}
	})
}
