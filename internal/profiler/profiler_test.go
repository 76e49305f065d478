package profiler

import (
	"math"
	"testing"

	"haxconn/internal/nn"
	"haxconn/internal/perf"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

func testProblem(platform string, names ...string) *schedule.Problem {
	p, ok := soc.PlatformByName(platform)
	if !ok {
		panic("unknown platform " + platform)
	}
	prob := &schedule.Problem{Platform: p}
	for _, n := range names {
		prob.Items = append(prob.Items, schedule.Item{Net: nn.MustByName(n)})
	}
	return prob
}

func TestCharacterizeShape(t *testing.T) {
	prob := testProblem("Orin", "GoogleNet", "ResNet50")
	pr, err := Characterize(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Groups) != 2 || len(pr.Exec) != 2 {
		t.Fatalf("profile covers %d/%d items", len(pr.Groups), len(pr.Exec))
	}
	for i := range pr.Groups {
		if len(pr.Exec[i]) != len(pr.Groups[i]) {
			t.Errorf("item %d: %d exec rows for %d groups", i, len(pr.Exec[i]), len(pr.Groups[i]))
		}
		for g := range pr.Exec[i] {
			for _, a := range pr.Allowed {
				e := pr.Exec[i][g][a]
				if e.LatencyMs <= 0 || e.DemandGBps <= 0 {
					t.Errorf("item %d group %d accel %d: non-positive characterization %+v", i, g, a, e)
				}
				if e.MemIntensity < 0 || e.MemIntensity > 1 {
					t.Errorf("item %d group %d accel %d: intensity %g", i, g, a, e.MemIntensity)
				}
			}
		}
	}
	// CPU must be excluded from Allowed.
	cpu := prob.Platform.AccelIndex("CPU")
	for _, a := range pr.Allowed {
		if a == cpu {
			t.Error("CPU must not be schedulable")
		}
	}
}

func TestBlackBoxEstimationIsCloseButNotExact(t *testing.T) {
	prob := testProblem("Orin", "GoogleNet")
	est, err := Characterize(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Characterize(prob, Options{ExactDSADemand: true})
	if err != nil {
		t.Fatal(err)
	}
	dla := prob.Platform.AccelIndex("DLA")
	var anyDiff bool
	for g := range est.Exec[0] {
		de := est.Exec[0][g][dla].DemandGBps
		dx := exact.Exec[0][g][dla].DemandGBps
		if dx <= 0 {
			t.Fatalf("group %d: exact demand %g", g, dx)
		}
		ratio := de / dx
		// The EMC-ratio method must land in the right regime...
		if ratio < 0.3 || ratio > 3.0 {
			t.Errorf("group %d: estimated/exact DLA demand ratio %.2f out of band", g, ratio)
		}
		// ...but is an estimate, not a measurement.
		if math.Abs(ratio-1) > 1e-9 {
			anyDiff = true
		}
	}
	if !anyDiff {
		t.Error("black-box estimation identical to exact measurement — estimation path not exercised")
	}
	// GPU demand is measured directly in both modes.
	gpu := prob.Platform.AccelIndex("GPU")
	for g := range est.Exec[0] {
		if est.Exec[0][g][gpu] != exact.Exec[0][g][gpu] {
			t.Errorf("group %d: GPU characterization should not depend on estimation mode", g)
		}
	}
}

func TestCharacterizeErrors(t *testing.T) {
	if _, err := Characterize(&schedule.Problem{}, Options{}); err == nil {
		t.Error("invalid problem should fail")
	}
	// A platform with only a GPU cannot schedule concurrent DNNs.
	p := soc.Orin()
	p.Accels = p.Accels[:1]
	prob := &schedule.Problem{Platform: p, Items: []schedule.Item{{Net: nn.MustByName("AlexNet")}}}
	if _, err := Characterize(prob, Options{}); err == nil {
		t.Error("single-accelerator platform should fail")
	}
	// Non-finite parameters are errors, and must not reach the memo: NaN
	// never equals itself, so every call would add an entry.
	resetMemo()
	for name, set := range map[string]func(p *soc.Platform){
		"EMCBandwidth": func(p *soc.Platform) { p.EMCBandwidth = math.NaN() },
		"SatFrac":      func(p *soc.Platform) { p.SatFrac = math.NaN() },
		"PeakGFLOPS":   func(p *soc.Platform) { p.Accels[1].PeakGFLOPS = math.NaN() },
		"FlushGBps":    func(p *soc.Platform) { p.Accels[0].FlushGBps = math.Inf(1) },
	} {
		p := soc.Orin()
		set(p)
		for i := 0; i < 2; i++ {
			if _, err := Characterize(oneNet(p, "GoogleNet"), Options{}); err == nil {
				t.Errorf("%s: non-finite platform characterized", name)
			}
		}
	}
	if n := len(memo.platforms); n != 0 {
		t.Errorf("rejected platforms made %d memo entries", n)
	}
}

func TestMaxGroupsOption(t *testing.T) {
	prob := testProblem("Orin", "GoogleNet")
	pr, err := Characterize(prob, Options{MaxGroups: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.NumGroups(0); got > 5 {
		t.Errorf("groups = %d, want <= 5", got)
	}
}

func TestMicrobenchGrid(t *testing.T) {
	grid := MicrobenchGrid()
	if len(grid) != 25 {
		t.Fatalf("grid has %d layers, want 25 (5 inputs x 5 filters)", len(grid))
	}
	for _, l := range grid {
		if l.Type != nn.Conv || l.Kernel < 1 || l.Kernel > 5 {
			t.Errorf("unexpected microbench layer %+v", l)
		}
	}
	if grid[0].Name != "i1_f1" || grid[24].Name != "i5_f5" {
		t.Errorf("grid order: %s .. %s", grid[0].Name, grid[24].Name)
	}
}

func TestTable2Shape(t *testing.T) {
	p := soc.Xavier()
	rows := Table2(p, nn.MustByName("GoogleNet"), 10)
	if len(rows) < 8 || len(rows) > 10 {
		t.Fatalf("Table 2 has %d rows, want ~10", len(rows))
	}
	minR, maxR := math.Inf(1), 0.0
	for _, r := range rows {
		if r.GPUMs <= 0 || r.DLAMs <= 0 || r.GtoDMs <= 0 || r.DtoGMs <= 0 {
			t.Errorf("row %s: non-positive entries %+v", r.Label, r)
		}
		if r.Ratio < 1 || r.Ratio > 4 {
			t.Errorf("row %s: D/G ratio %.2f outside the paper's regime", r.Label, r.Ratio)
		}
		if r.MemThroughPc <= 0 || r.MemThroughPc > 100 {
			t.Errorf("row %s: memory throughput %.1f%%", r.Label, r.MemThroughPc)
		}
		minR = math.Min(minR, r.Ratio)
		maxR = math.Max(maxR, r.Ratio)
	}
	if maxR/minR < 1.15 {
		t.Errorf("D/G ratio spread %.2f..%.2f too flat for layer-level mapping", minR, maxR)
	}
}

func TestDemandRatiosPositive(t *testing.T) {
	for _, p := range soc.Platforms() {
		ratios := demandRatios(p)
		dsa := p.AccelIndex(p.DSA().Name)
		r, ok := ratios[dsa]
		if !ok || r <= 0 {
			t.Errorf("%s: no demand ratio for DSA", p.Name)
		}
	}
}

func TestTransitionTablesMatchPerf(t *testing.T) {
	prob := testProblem("Orin", "GoogleNet")
	pr, err := Characterize(prob, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := prob.Platform
	for g, grp := range pr.Groups[0] {
		for ai, a := range p.Accels {
			if got, want := pr.TransOutMs[0][g][ai], perf.TransitionOutMs(a, grp.OutputBytes()); got != want {
				t.Errorf("group %d accel %d: TransOut %g != %g", g, ai, got, want)
			}
			if got, want := pr.TransInMs[0][g][ai], perf.TransitionInMs(a, grp.InputBytes()); got != want {
				t.Errorf("group %d accel %d: TransIn %g != %g", g, ai, got, want)
			}
		}
	}
}
