package schedule

import (
	"math"
	"strings"
	"testing"

	"haxconn/internal/contention"
	"haxconn/internal/nn"
	"haxconn/internal/perf"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
)

// testProfile builds a profile directly from the performance model (no
// black-box estimation) for the given networks on Orin.
func testProfile(t *testing.T, names ...string) (*Problem, *Profile) {
	t.Helper()
	p := soc.Orin()
	prob := &Problem{Platform: p}
	pr := &Profile{Platform: p}
	for ai, a := range p.Accels {
		if a.Kind != soc.CPU {
			pr.Allowed = append(pr.Allowed, ai)
		}
	}
	for _, name := range names {
		net := nn.MustByName(name)
		prob.Items = append(prob.Items, Item{Net: net, Iterations: 1})
		groups := nn.Groups(net, nn.DefaultMaxGroups)
		pr.Groups = append(pr.Groups, groups)
		exec := make([][]GroupExec, len(groups))
		tout := make([][]float64, len(groups))
		tin := make([][]float64, len(groups))
		outB := make([]int64, len(groups))
		for gi, g := range groups {
			exec[gi] = make([]GroupExec, len(p.Accels))
			tout[gi] = make([]float64, len(p.Accels))
			tin[gi] = make([]float64, len(p.Accels))
			outB[gi] = g.OutputBytes()
			for ai, a := range p.Accels {
				gp := perf.Group(a, g)
				exec[gi][ai] = GroupExec{LatencyMs: gp.LatencyMs, DemandGBps: gp.DemandGBps, MemIntensity: gp.MemIntensity}
				tout[gi][ai] = perf.TransitionOutMs(a, g.OutputBytes())
				tin[gi][ai] = perf.TransitionInMs(a, g.InputBytes())
			}
		}
		pr.Exec = append(pr.Exec, exec)
		pr.TransOutMs = append(pr.TransOutMs, tout)
		pr.TransInMs = append(pr.TransInMs, tin)
		pr.OutBytes = append(pr.OutBytes, outB)
	}
	return prob, pr
}

func gtArb(p *soc.Platform) sim.Arbiter { return sim.GroundTruth{SatBW: p.SatBW()} }

func TestUniformScheduleEvaluates(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet", "ResNet50")
	s := Uniform(pr, 0)
	ev, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if ev.MakespanMs <= 0 {
		t.Fatal("non-positive makespan")
	}
	// Both nets on the GPU serialize: makespan is the sum of latencies.
	sum := ev.ItemLatencyMs[0] + ev.ItemLatencyMs[1]
	if ev.MakespanMs < math.Max(ev.ItemLatencyMs[0], ev.ItemLatencyMs[1]) {
		t.Error("makespan below the longer item")
	}
	_ = sum
	if s.Transitions(0) != 0 || s.Transitions(1) != 0 {
		t.Error("uniform schedule must have zero transitions")
	}
}

func TestTransitionsCounted(t *testing.T) {
	_, pr := testProfile(t, "GoogleNet")
	s := Uniform(pr, 0)
	g := pr.NumGroups(0)
	s.Assign[0][g-1] = 1
	if s.Transitions(0) != 1 {
		t.Errorf("Transitions = %d, want 1", s.Transitions(0))
	}
	s.Assign[0][0] = 1
	if s.Transitions(0) != 2 {
		t.Errorf("Transitions = %d, want 2", s.Transitions(0))
	}
}

func TestTransitionCostIncreasesBase(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet")
	uni := Uniform(pr, 0)
	split := uni.Clone()
	split.Assign[0][pr.NumGroups(0)-1] = 1

	baseU := BaseLatencyMs(pr, uni, 0, 1)
	baseS := BaseLatencyMs(pr, split, 0, 1)
	// The split schedule pays a transition; whether it is net faster
	// depends on group times, but the transition terms must be included.
	var execU, execS float64
	for g := 0; g < pr.NumGroups(0); g++ {
		execU += pr.Exec[0][g][uni.Assign[0][g]].LatencyMs
		execS += pr.Exec[0][g][split.Assign[0][g]].LatencyMs
	}
	if !near(baseU, execU, 1e-9) {
		t.Errorf("uniform base %g != exec sum %g", baseU, execU)
	}
	wantTrans := pr.TransOutMs[0][pr.NumGroups(0)-2][0] + pr.TransInMs[0][pr.NumGroups(0)-1][1]
	if !near(baseS-execS, wantTrans, 1e-9) {
		t.Errorf("split base - exec = %g, want transition %g", baseS-execS, wantTrans)
	}
	_ = prob
}

func TestMinBaseLowerBoundsAllSchedules(t *testing.T) {
	_, pr := testProfile(t, "ResNet50")
	lb := MinBaseLatencyMs(pr, 0, 1)
	for _, a := range pr.Allowed {
		s := Uniform(pr, a)
		if b := BaseLatencyMs(pr, s, 0, 1); b < lb-1e-9 {
			t.Errorf("schedule base %g below lower bound %g", b, lb)
		}
	}
}

func TestEvaluateMatchesBaseWithoutContention(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet")
	s := Uniform(pr, 0)
	ev, err := Evaluate(prob, pr, s, sim.ModelArbiter{Model: contention.None{}})
	if err != nil {
		t.Fatal(err)
	}
	want := BaseLatencyMs(pr, s, 0, 1)
	if !near(ev.MakespanMs, want, 1e-6) {
		t.Errorf("no-contention eval %g != base %g", ev.MakespanMs, want)
	}
}

func TestGroundTruthAtLeastBase(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet", "ResNet101")
	s := Uniform(pr, 0)
	s.Assign[1] = Uniform(pr, 1).Assign[1] // net 2 on DLA: concurrent
	ev, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if ev.ItemLatencyMs[i] < BaseLatencyMs(pr, s, i, 1)-1e-9 {
			t.Errorf("item %d measured %g below contention-free base %g",
				i, ev.ItemLatencyMs[i], BaseLatencyMs(pr, s, i, 1))
		}
	}
}

func TestIterationsScaleLatency(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet")
	prob.Items[0].Iterations = 3
	s := Uniform(pr, 0)
	ev, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	prob.Items[0].Iterations = 1
	ev1, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if !near(ev.MakespanMs, 3*ev1.MakespanMs, 1e-6) {
		t.Errorf("3 iterations: %g, want 3x %g", ev.MakespanMs, ev1.MakespanMs)
	}
}

func TestObjectiveCosts(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet")
	s := Uniform(pr, 0)
	prob.Objective = MinMaxLatency
	evL, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if evL.Cost != evL.MakespanMs {
		t.Error("latency cost must equal makespan")
	}
	prob.Objective = MaxThroughput
	evT, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if !near(evT.Cost, -evT.FPS, 1e-12) {
		t.Error("throughput cost must be negative FPS")
	}
}

func TestFrameCountOverride(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet", "ResNet50")
	s := Uniform(pr, 0)
	ev, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	prob.FrameCount = 1
	ev1, err := Evaluate(prob, pr, s, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if !near(ev.FPS, 2*ev1.FPS, 1e-9) {
		t.Errorf("default frames FPS %g should be 2x FrameCount=1 FPS %g", ev.FPS, ev1.FPS)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet")
	disallowed := func(a int) *Schedule {
		s := Uniform(pr, 0)
		s.Assign[0][0] = a
		return s
	}
	ev := NewEvaluator(prob, pr, gtArb(prob.Platform))
	for _, c := range []struct {
		name string
		s    *Schedule
	}{
		{"wrong group count", &Schedule{Assign: [][]int{{0}}}},
		{"CPU assignment", disallowed(prob.Platform.AccelIndex("CPU"))},
		{"negative accelerator", disallowed(-1)},
		{"unknown accelerator", disallowed(len(prob.Platform.Accels))},
		{"missing rows", &Schedule{Assign: nil}},
	} {
		// Validate, Evaluate and the solver's Evaluator must all refuse it.
		if err := c.s.Validate(pr); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
		if _, err := Evaluate(prob, pr, c.s, gtArb(prob.Platform)); err == nil {
			t.Errorf("%s: Evaluate accepted it", c.name)
		}
		if _, err := ev.Cost(c.s); err == nil {
			t.Errorf("%s: Evaluator.Cost accepted it", c.name)
		}
	}
}

// A warmed Evaluator allocates nothing per call, so no label, record or
// interval can creep back into the solver's inner loop unnoticed.
func TestEvaluatorCostAllocatesNothing(t *testing.T) {
	prob, pr := testProfile(t, "VGG19", "ResNet50", "GoogleNet")
	prob.Items[1].Iterations = 3
	prob.Items[2].After = []int{0}
	m, err := contention.FitPCCS(prob.Platform.SatBW(), 16)
	if err != nil {
		t.Fatal(err)
	}
	s := Uniform(pr, 0)
	for i, row := range s.Assign {
		for g := len(row) / 2; g < len(row); g++ {
			row[g] = 1 - i%2
		}
	}
	for _, obj := range []Objective{MinMaxLatency, MaxThroughput} {
		prob.Objective = obj
		ev := NewEvaluator(prob, pr, sim.ModelArbiter{Model: m})
		if _, err := ev.Cost(s); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := ev.Cost(s); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%v: warmed Evaluator.Cost allocates %v times per call, want 0", obj, allocs)
		}
	}
}

func TestProblemValidate(t *testing.T) {
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("nil platform should fail")
	}
	p := soc.Orin()
	if err := (&Problem{Platform: p}).Validate(); err == nil {
		t.Error("no items should fail")
	}
	bad := &Problem{Platform: p, Items: []Item{{Net: nn.MustByName("AlexNet"), After: []int{0}}}}
	if err := bad.Validate(); err == nil {
		t.Error("self-dependency should fail")
	}
}

func TestDescribe(t *testing.T) {
	_, pr := testProfile(t, "GoogleNet")
	s := Uniform(pr, 0)
	s.Assign[0][pr.NumGroups(0)-1] = 1
	d := s.Describe(pr)
	if !strings.Contains(d, "GoogleNet") || !strings.Contains(d, "GPU") || !strings.Contains(d, "DLA") {
		t.Errorf("Describe = %q", d)
	}
}

func TestCloneIsDeep(t *testing.T) {
	_, pr := testProfile(t, "GoogleNet")
	s := Uniform(pr, 0)
	c := s.Clone()
	c.Assign[0][0] = 1
	if s.Assign[0][0] == 1 {
		t.Error("Clone must not share backing arrays")
	}
}

func TestBuildSimTransitionTasks(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet")
	s := Uniform(pr, 0)
	s.Assign[0][pr.NumGroups(0)-1] = 1
	w := BuildSim(prob, pr, s)
	if len(w.Streams) != 1 {
		t.Fatalf("streams = %d", len(w.Streams))
	}
	// groups + 2 transition tasks (OUT + IN).
	want := pr.NumGroups(0) + 2
	if len(w.Streams[0].Tasks) != want {
		t.Errorf("tasks = %d, want %d", len(w.Streams[0].Tasks), want)
	}
	var hasOut, hasIn bool
	for _, task := range w.Streams[0].Tasks {
		if strings.Contains(task.Label, "/out") {
			hasOut = true
			if task.Accel != 0 {
				t.Error("OUT transition must run on the old accelerator")
			}
		}
		if strings.Contains(task.Label, "/in") {
			hasIn = true
			if task.Accel != 1 {
				t.Error("IN transition must run on the new accelerator")
			}
		}
	}
	if !hasOut || !hasIn {
		t.Error("missing transition tasks")
	}
}

func TestObjectiveString(t *testing.T) {
	if MinMaxLatency.String() != "MinLatency" || MaxThroughput.String() != "MaxFPS" {
		t.Error("objective strings")
	}
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQueueingMs(t *testing.T) {
	prob, pr := testProfile(t, "GoogleNet", "ResNet101")
	// Both networks on the GPU: the second queues behind the first.
	serial := Uniform(pr, 0)
	evS, err := Evaluate(prob, pr, serial, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if q := QueueingMs(evS); q <= 0 {
		t.Errorf("serialized schedule reports no queueing (%g ms)", q)
	}
	// Split across accelerators: queueing should drop substantially.
	split := Uniform(pr, 0)
	split.Assign[1] = Uniform(pr, 1).Assign[1]
	evP, err := Evaluate(prob, pr, split, gtArb(prob.Platform))
	if err != nil {
		t.Fatal(err)
	}
	if QueueingMs(evP) >= QueueingMs(evS) {
		t.Errorf("concurrent schedule queueing %g not below serialized %g", QueueingMs(evP), QueueingMs(evS))
	}
	if !SatisfiesEpsilon(evP, 1e9) {
		t.Error("huge epsilon must always be satisfied")
	}
	if SatisfiesEpsilon(evS, 0) {
		t.Error("zero epsilon must reject a serialized schedule")
	}
}

func TestPercentile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(data, 0.5); p != 5 {
		t.Errorf("p50 = %g", p)
	}
	if p := Percentile(data, 0.95); p != 10 {
		t.Errorf("p95 = %g", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %g", p)
	}
}

func TestScheduleKeyDistinguishes(t *testing.T) {
	a := &Schedule{Assign: [][]int{{0, 0, 1}}}
	b := &Schedule{Assign: [][]int{{0, 1, 0}}}
	if a.Key() == b.Key() {
		t.Error("distinct schedules share a key")
	}
}
