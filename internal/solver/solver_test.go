package solver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"haxconn/internal/baselines"
	"haxconn/internal/contention"
	"haxconn/internal/nn"
	"haxconn/internal/profiler"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
)

func buildProblem(t *testing.T, platform string, obj schedule.Objective, maxGroups int, names ...string) (*schedule.Problem, *schedule.Profile) {
	t.Helper()
	p, ok := soc.PlatformByName(platform)
	if !ok {
		t.Fatalf("unknown platform %s", platform)
	}
	prob := &schedule.Problem{Platform: p, Objective: obj}
	for _, n := range names {
		prob.Items = append(prob.Items, schedule.Item{Net: nn.MustByName(n)})
	}
	pr, err := profiler.Characterize(prob, profiler.Options{MaxGroups: maxGroups})
	if err != nil {
		t.Fatal(err)
	}
	return prob, pr
}

func model(t *testing.T, p *soc.Platform) contention.Model {
	t.Helper()
	m, err := contention.FitPCCS(p.SatBW(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSharedCandidatesStayFresh: the memoized rows equal a fresh
// enumeration, before and after branch & bound sorts its copy of them,
// and a second request for the shape returns the memo's own rows.
func TestSharedCandidatesStayFresh(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 6, "VGG19", "ResNet152")
	for i := range prob.Items {
		if got, want := sharedCandidates(pr, i, 1), Candidates(pr, i, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: memoized rows differ from a fresh enumeration", i)
		}
	}
	if _, _, _, err := OptimizeBB(prob, pr, Config{Model: model(t, prob.Platform)}); err != nil {
		t.Fatal(err)
	}
	for i := range prob.Items {
		got := sharedCandidates(pr, i, 1)
		if !reflect.DeepEqual(got, Candidates(pr, i, 1)) {
			t.Errorf("item %d: a solve reordered or wrote the memoized rows", i)
		}
		if again := sharedCandidates(pr, i, 1); &again[0] != &got[0] {
			t.Errorf("item %d: the memo enumerated the shape again", i)
		}
	}
}

func TestCandidatesCount(t *testing.T) {
	_, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 6, "GoogleNet")
	g := pr.NumGroups(0)
	// With 2 accelerators: t=0 gives 2; t<=1 adds 2*(g-1).
	c0 := Candidates(pr, 0, 0)
	if len(c0) != 2 {
		t.Errorf("0 transitions: %d candidates, want 2", len(c0))
	}
	c1 := Candidates(pr, 0, 1)
	if want := 2 + 2*(g-1); len(c1) != want {
		t.Errorf("1 transition: %d candidates, want %d", len(c1), want)
	}
	c2 := Candidates(pr, 0, 2)
	if want := 2 + 2*(g-1) + (g-1)*(g-2); len(c2) != want {
		t.Errorf("2 transitions: %d candidates, want %d", len(c2), want)
	}
	// Every candidate respects the transition budget.
	for _, cand := range c2 {
		tr := 0
		for i := 1; i < len(cand); i++ {
			if cand[i] != cand[i-1] {
				tr++
			}
		}
		if tr > 2 {
			t.Fatalf("candidate %v has %d transitions", cand, tr)
		}
	}
}

// TestBBFindsOptimumExhaustively checks branch & bound against brute force
// over every leaf of the candidate space, under both objectives, unseeded
// and seeded with the naive baselines as core.Plan seeds it.
func TestBBFindsOptimumExhaustively(t *testing.T) {
	for _, inst := range []struct {
		nets      [2]string
		maxGroups int
		leaves    int
	}{
		{[2]string{"GoogleNet", "ResNet50"}, 4, 64},
		// Table 6's VGG19+ResNet152 pair, cut into 6 groups.
		{[2]string{"VGG19", "ResNet152"}, 6, 144},
	} {
		for _, obj := range []schedule.Objective{schedule.MinMaxLatency, schedule.MaxThroughput} {
			t.Run(inst.nets[0]+"+"+inst.nets[1]+"/"+obj.String(), func(t *testing.T) {
				prob, pr := buildProblem(t, "Orin", obj, inst.maxGroups, inst.nets[0], inst.nets[1])
				m := model(t, prob.Platform)
				arb := sim.ModelArbiter{Model: m}

				bruteBest, leaves := math.Inf(1), 0
				for _, a0 := range Candidates(pr, 0, 1) {
					for _, a1 := range Candidates(pr, 1, 1) {
						ev, err := schedule.Evaluate(prob, pr, &schedule.Schedule{Assign: [][]int{a0, a1}}, arb)
						if err != nil {
							t.Fatal(err)
						}
						bruteBest = math.Min(bruteBest, ev.Cost)
						leaves++
					}
				}
				if leaves != inst.leaves {
					t.Fatalf("%d leaves, want %d", leaves, inst.leaves)
				}
				for _, seeds := range [][]*schedule.Schedule{nil, {baselines.GPUOnly(pr), baselines.NaiveConcurrent(pr)}} {
					best, cost, st, err := OptimizeBB(prob, pr, Config{Model: m, Seeds: seeds})
					if err != nil {
						t.Fatal(err)
					}
					if !st.Complete {
						t.Error("search should complete")
					}
					if math.Abs(cost-bruteBest) > 1e-9 {
						t.Errorf("%d seeds: B&B cost %g != brute force %g", len(seeds), cost, bruteBest)
					}
					ev, err := schedule.Evaluate(prob, pr, best, arb)
					if err != nil {
						t.Fatal(err)
					}
					if ev.Cost != cost {
						t.Errorf("%d seeds: returned schedule costs %g, reported %g", len(seeds), ev.Cost, cost)
					}
				}
			})
		}
	}
}

func TestSeedsGuaranteeNeverWorse(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 8, "VGG19", "ResNet152")
	m := model(t, prob.Platform)
	seeds := []*schedule.Schedule{baselines.GPUOnly(pr), baselines.NaiveConcurrent(pr)}
	best, cost, _, err := OptimizeBB(prob, pr, Config{Model: m, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	arb := sim.ModelArbiter{Model: m}
	for _, seed := range seeds {
		ev, err := schedule.Evaluate(prob, pr, seed, arb)
		if err != nil {
			t.Fatal(err)
		}
		if cost > ev.Cost+1e-9 {
			t.Errorf("optimal cost %g worse than seed %g", cost, ev.Cost)
		}
	}
	if err := best.Validate(pr); err != nil {
		t.Error(err)
	}
}

func TestTransitionBudgetRespected(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 8, "GoogleNet", "ResNet101")
	m := model(t, prob.Platform)
	for _, maxT := range []int{1, 2} {
		best, _, _, err := OptimizeBB(prob, pr, Config{Model: m, MaxTransitions: maxT})
		if err != nil {
			t.Fatal(err)
		}
		for i := range prob.Items {
			if tr := best.Transitions(i); tr > maxT {
				t.Errorf("maxT=%d: item %d has %d transitions", maxT, i, tr)
			}
		}
	}
}

func TestAnytimeImprovesMonotonically(t *testing.T) {
	prob, pr := buildProblem(t, "Xavier", schedule.MinMaxLatency, 8, "VGG19", "ResNet152")
	m := model(t, prob.Platform)
	a, err := RunAnytime(prob, pr, Config{
		Model: m,
		Seeds: []*schedule.Schedule{baselines.NaiveConcurrent(pr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.History) == 0 {
		t.Fatal("no incumbents recorded")
	}
	for i := 1; i < len(a.History); i++ {
		if a.History[i].Cost >= a.History[i-1].Cost {
			t.Errorf("incumbent %d cost %g not better than %g", i, a.History[i].Cost, a.History[i-1].Cost)
		}
		if a.History[i].Nodes < a.History[i-1].Nodes {
			t.Errorf("incumbent %d found at %d nodes, before incumbent %d at %d", i, a.History[i].Nodes, i-1, a.History[i-1].Nodes)
		}
	}
	last := a.History[len(a.History)-1]
	if last.Cost != a.Cost {
		t.Error("final history entry must match the returned best")
	}
	if s := a.ScheduleAtNodes(math.MaxInt); s == nil || s.Key() != last.Schedule.Key() {
		t.Error("ScheduleAtNodes(MaxInt) should return the final incumbent")
	}
}

func TestTimeBudgetStopsSearch(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 12, "ResNet152", "Inception", "GoogleNet")
	m := model(t, prob.Platform)
	_, _, st, err := OptimizeBB(prob, pr, Config{
		Model:      m,
		TimeBudget: time.Microsecond,
		Seeds:      []*schedule.Schedule{baselines.GPUOnly(pr)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete {
		t.Error("1us budget should not complete a 3-network search")
	}
}

func TestNilModelRejected(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 4, "AlexNet")
	if _, _, _, err := OptimizeBB(prob, pr, Config{}); err == nil {
		t.Error("nil model must be rejected")
	}
}

func TestContentionAwareBeatsUnawarePrediction(t *testing.T) {
	// The headline claim: optimizing with the contention model yields a
	// schedule that is no worse — and typically better — on ground truth
	// than optimizing with a contention-unaware cost.
	prob, pr := buildProblem(t, "Xavier", schedule.MinMaxLatency, 8, "VGG19", "ResNet152")
	m := model(t, prob.Platform)
	seeds := []*schedule.Schedule{baselines.GPUOnly(pr), baselines.NaiveConcurrent(pr)}

	aware, _, _, err := OptimizeBB(prob, pr, Config{Model: m, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	unaware, _, _, err := OptimizeBB(prob, pr, Config{Model: contention.None{}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	gt := sim.GroundTruth{SatBW: prob.Platform.SatBW()}
	evA, err := schedule.Evaluate(prob, pr, aware, gt)
	if err != nil {
		t.Fatal(err)
	}
	evU, err := schedule.Evaluate(prob, pr, unaware, gt)
	if err != nil {
		t.Fatal(err)
	}
	if evA.MakespanMs > evU.MakespanMs*1.02 {
		t.Errorf("contention-aware measured %g ms worse than unaware %g ms", evA.MakespanMs, evU.MakespanMs)
	}
}

func TestCriticalPath(t *testing.T) {
	p := soc.Orin()
	prob := &schedule.Problem{Platform: p, Items: []schedule.Item{
		{Net: nn.MustByName("AlexNet")},
		{Net: nn.MustByName("GoogleNet"), After: []int{0}},
		{Net: nn.MustByName("ResNet18")},
	}}
	var m pathMemo
	lat := []float64{3, 4, 5}
	// Chain 0->1 is 7; item 2 alone is 5.
	if got := m.criticalPath(prob, lat); got != 7 {
		t.Errorf("critical path = %g, want 7", got)
	}
	// The reused memo must not leak the previous call's finish times.
	lat = []float64{1, 1, 9}
	if got := m.criticalPath(prob, lat); got != 9 {
		t.Errorf("critical path on reused memo = %g, want 9", got)
	}
}

// The solver costs candidates with schedule.Evaluator, and plans and
// served mixes are measured with it; its cost and its timeline-free
// evaluation must equal Evaluate's bit for bit on everything they can hand
// it, under the model the solver optimizes with and under ground truth,
// with one Evaluator per arbiter reused across schedules in shuffled
// order. Each Evaluator is released after its run, so the next one, for
// the other arbiter or the next problem, lowers into its buffers.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	problem := func(platform string, obj schedule.Objective, frames int, items ...schedule.Item) (*schedule.Problem, *schedule.Profile) {
		p, ok := soc.PlatformByName(platform)
		if !ok {
			t.Fatalf("unknown platform %s", platform)
		}
		prob := &schedule.Problem{Platform: p, Items: items, Objective: obj, FrameCount: frames}
		pr, err := profiler.Characterize(prob, profiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return prob, pr
	}
	item := func(name string, iterations int, after ...int) schedule.Item {
		return schedule.Item{Net: nn.MustByName(name), Iterations: iterations, After: after}
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name   string
		sample int // 0 costs every candidate combination
		prob   func() (*schedule.Problem, *schedule.Profile)
	}{
		// A Table 8 Orin pair, frame-balanced as in Sec. 5.4.
		{"t8-ResNet101+GoogleNet", 0, func() (*schedule.Problem, *schedule.Profile) {
			return problem("Orin", schedule.MaxThroughput, 0, item("ResNet101", 1), item("GoogleNet", 3))
		}},
		// Table 6 experiment 1.
		{"t6-exp1-Xavier", 0, func() (*schedule.Problem, *schedule.Profile) {
			return problem("Xavier", schedule.MinMaxLatency, 0, item("VGG19", 1), item("ResNet152", 1))
		}},
		// Table 6 experiment 8's three-DNN pipeline, streamed.
		{"t6-exp8-pipeline", 300, func() (*schedule.Problem, *schedule.Profile) {
			return problem("Orin", schedule.MinMaxLatency, 1, item("ResNet101", 1), item("GoogleNet", 1, 0), item("Inception", 1))
		}},
	} {
		prob, pr := c.prob()
		cands := make([][][]int, len(prob.Items))
		for i := range cands {
			cands[i] = Candidates(pr, i, 1)
		}
		var scheds []*schedule.Schedule
		pick := make([]int, len(cands))
		add := func() {
			s := &schedule.Schedule{Assign: make([][]int, len(cands))}
			for i, k := range pick {
				s.Assign[i] = cands[i][k]
			}
			scheds = append(scheds, s)
		}
		if c.sample > 0 {
			for n := 0; n < c.sample; n++ {
				for i := range pick {
					pick[i] = rng.Intn(len(cands[i]))
				}
				add()
			}
		} else {
			var all func(i int)
			all = func(i int) {
				if i == len(cands) {
					add()
					return
				}
				for k := range cands[i] {
					pick[i] = k
					all(i + 1)
				}
			}
			all(0)
		}
		for _, arb := range []sim.Arbiter{
			sim.ModelArbiter{Model: model(t, prob.Platform)},
			sim.GroundTruth{SatBW: prob.Platform.SatBW()},
		} {
			ev := schedule.NewEvaluator(prob, pr, arb)
			for _, k := range rng.Perm(len(scheds)) {
				s := scheds[k]
				want, err := schedule.Evaluate(prob, pr, s, arb)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				got, makespan, cut, err := ev.Cost(s, math.Inf(1))
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if cut {
					t.Fatalf("%s %T %v: cut without a limit", c.name, arb, s.Assign)
				}
				if math.Float64bits(got) != math.Float64bits(want.Cost) || math.Float64bits(makespan) != math.Float64bits(want.MakespanMs) {
					t.Fatalf("%s %T %v: Evaluator cost %v and makespan %v, Evaluate %v and %v", c.name, arb, s.Assign, got, makespan, want.Cost, want.MakespanMs)
				}
				full, err := ev.Evaluate(s)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if full.Result != nil {
					t.Fatalf("%s: Evaluator.Evaluate recorded a timeline", c.name)
				}
				same := func(what string, a, b []float64) {
					if len(a) != len(b) {
						t.Fatalf("%s %T %v %s: %d values, Evaluate %d", c.name, arb, s.Assign, what, len(a), len(b))
					}
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("%s %T %v %s[%d]: Evaluator %v, Evaluate %v", c.name, arb, s.Assign, what, i, a[i], b[i])
						}
					}
				}
				same("figures", []float64{full.MakespanMs, full.FPS, full.Cost}, []float64{want.MakespanMs, want.FPS, want.Cost})
				same("item latencies", full.ItemLatencyMs, want.ItemLatencyMs)
				same("stream ends", full.StreamEndMs, want.Result.StreamEndMs)
				same("Evaluate's stream ends", want.StreamEndMs, want.Result.StreamEndMs)
			}
			ev.Release()
		}
	}
}
