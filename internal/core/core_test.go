package core

import (
	"math"
	"testing"

	"haxconn/internal/contention"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

func TestPlanBasic(t *testing.T) {
	res, err := Plan(Request{
		Platform:  soc.Orin(),
		Networks:  []string{"GoogleNet", "ResNet101"},
		Objective: schedule.MinMaxLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredMs <= 0 || res.FPS <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Description == "" {
		t.Error("empty description")
	}
	if len(res.ItemLatencyMs) != 2 {
		t.Errorf("item latencies: %v", res.ItemLatencyMs)
	}
	if !res.SolverStats.Complete {
		t.Error("solver should complete")
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(Request{}); err == nil {
		t.Error("nil platform should fail")
	}
	if _, err := Plan(Request{Platform: soc.Orin()}); err == nil {
		t.Error("no networks should fail")
	}
	if _, err := Plan(Request{Platform: soc.Orin(), Networks: []string{"NoSuchNet"}}); err == nil {
		t.Error("unknown network should fail")
	}
	if _, err := Plan(Request{Platform: soc.Orin(), Networks: []string{"AlexNet"}, After: [][]int{{5}}}); err == nil {
		t.Error("bad dependency should fail")
	}
}

// The paper's guarantee (Sec. 5.2, Scenario 3): HaX-CoNN never performs
// worse than the naive baselines, on ground truth, for any pair.
func TestNeverWorseThanBaselines(t *testing.T) {
	pairs := [][2]string{
		{"VGG19", "ResNet152"},
		{"GoogleNet", "ResNet101"},
		{"AlexNet", "Inception"},
		{"CaffeNet", "DenseNet"},
	}
	for _, platName := range []string{"Orin", "Xavier", "SD865"} {
		p, _ := soc.PlatformByName(platName)
		for _, pair := range pairs {
			for _, obj := range []schedule.Objective{schedule.MinMaxLatency, schedule.MaxThroughput} {
				cmp, err := Compare(Request{Platform: p, Networks: pair[:], Objective: obj})
				if err != nil {
					t.Fatalf("%s %v: %v", platName, pair, err)
				}
				if impr := cmp.Improvement(obj); impr < -0.02 {
					_, best := cmp.BestBaseline(obj)
					t.Errorf("%s %v obj=%v: HaX-CoNN (%.2f ms / %.1f fps) worse than best baseline (%.2f ms / %.1f fps)",
						platName, pair, obj, cmp.HaXCoNN.MeasuredMs, cmp.HaXCoNN.FPS, best.MeasuredMs, best.FPS)
				}
			}
		}
	}
}

func TestCompareHasAllBaselines(t *testing.T) {
	cmp, err := Compare(Request{
		Platform:  soc.Orin(),
		Networks:  []string{"GoogleNet", "ResNet50"},
		Objective: schedule.MaxThroughput,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"GPU-only", "GPU&DSA", "Mensa", "Herald", "H2H"} {
		if cmp.Baselines[name] == nil {
			t.Errorf("missing baseline %s", name)
		}
	}
	name, best := cmp.BestBaseline(schedule.MaxThroughput)
	if name == "" || best == nil {
		t.Fatal("no best baseline")
	}
	for _, r := range cmp.Baselines {
		if r.FPS > best.FPS+1e-9 {
			t.Errorf("best baseline %s (%.1f fps) beaten by another baseline (%.1f fps)", name, best.FPS, r.FPS)
		}
	}
}

func TestPlanDynamicHistory(t *testing.T) {
	any, prob, pr, err := PlanDynamic(Request{
		Platform:  soc.Xavier(),
		Networks:  []string{"ResNet152", "Inception"},
		Objective: schedule.MinMaxLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(any.History) < 2 {
		t.Fatalf("expected multiple incumbents (naive seed + improvements), got %d", len(any.History))
	}
	// The deployed schedule improves monotonically over the timeline.
	first := any.ScheduleAtNodes(0)
	last := any.ScheduleAtNodes(math.MaxInt)
	mFirst, err := Measure(prob, pr, first)
	if err != nil {
		t.Fatal(err)
	}
	mLast, err := Measure(prob, pr, last)
	if err != nil {
		t.Fatal(err)
	}
	if mLast.MeasuredMs > mFirst.MeasuredMs+1e-9 {
		t.Errorf("final schedule (%.2f ms) worse than initial (%.2f ms)", mLast.MeasuredMs, mFirst.MeasuredMs)
	}
}

func TestContentionModelOverride(t *testing.T) {
	res, err := Plan(Request{
		Platform:        soc.Orin(),
		Networks:        []string{"GoogleNet", "ResNet50"},
		Objective:       schedule.MinMaxLatency,
		ContentionModel: contention.None{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredMs <= 0 {
		t.Error("ablated plan should still produce a measurable schedule")
	}
}

func TestIterationsAndPipeline(t *testing.T) {
	res, err := Plan(Request{
		Platform:   soc.Orin(),
		Networks:   []string{"GoogleNet", "ResNet101", "Inception"},
		After:      [][]int{nil, {0}, nil},
		Iterations: []int{2, 1, 1},
		Objective:  schedule.MinMaxLatency,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredMs <= 0 {
		t.Fatal("bad result")
	}
	// The dependent network cannot start before its predecessor ends.
	if res.ItemLatencyMs[1] <= 0 {
		t.Error("dependent item has no latency")
	}
}

func TestModelDefaultsToPCCS(t *testing.T) {
	m, err := Model(Request{Platform: soc.Orin()})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "pccs" {
		t.Errorf("default model %q, want pccs", m.Name())
	}
	m, err = Model(Request{Platform: soc.Orin(), ContentionModel: contention.None{}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "none" {
		t.Errorf("override model %q, want none", m.Name())
	}
}

func TestPrepareAndAnytimeFromProfile(t *testing.T) {
	req := Request{
		Platform:  soc.Orin(),
		Networks:  []string{"VGG19", "ResNet152"},
		Objective: schedule.MinMaxLatency,
	}
	prob, pr, err := Prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Items) != 2 || len(pr.Groups) != 2 {
		t.Fatalf("prepared %d items, %d profiled", len(prob.Items), len(pr.Groups))
	}
	// Solving from the cached profile must agree with the one-shot flow.
	any, err := AnytimeFromProfile(req, prob, pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(any.History) == 0 || any.Best == nil {
		t.Fatal("anytime run produced no incumbents")
	}
	res, err := Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Measure(prob, pr, any.Best)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cached.MeasuredMs-res.MeasuredMs) > 1e-6 {
		t.Errorf("plan-from-profile measured %.4f ms, one-shot plan %.4f ms",
			cached.MeasuredMs, res.MeasuredMs)
	}
}
