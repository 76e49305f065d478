package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"haxconn/internal/baselines"
	"haxconn/internal/contention"
	"haxconn/internal/core"
	"haxconn/internal/experiments"
	"haxconn/internal/nn"
	"haxconn/internal/perf"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
	"haxconn/internal/solver"
)

// exhaustiveSample is how many two-network problems each plan-paper run
// re-solves by exhaustive enumeration; costTolerance is the relative gap
// allowed between branch & bound's cost and the exhaustive optimum.
const (
	exhaustiveSample = 6
	costTolerance    = 1e-12
)

// paperProblem is one problem of the paper's evaluation set.
type paperProblem struct {
	name string
	req  core.Request
	// t6 is the Table 6 definition the problem comes from, or nil for a
	// Table 8 pair.
	t6 *experiments.T6Def
}

// planPaper is the plan-paper workload: one request is one core.Compare
// over Table 6's ten experiments and Table 8's 55 Orin pairs.
type planPaper struct {
	seed     int64
	problems []paperProblem
	// ref is the first plain pass's comparisons, for the once-per-run
	// checks and the simulated metrics.
	ref []*core.Comparison
	// checked memoizes check results by output digest.
	checked map[string]int
	models  map[string]contention.Model
}

func setupPlanPaper(seed int64) (bench, error) {
	probs, err := paperProblems()
	if err != nil {
		return nil, err
	}
	return &planPaper{seed: seed, problems: probs, checked: map[string]int{}, models: map[string]contention.Model{}}, nil
}

// paperProblems builds the evaluation set: Table 6's experiments, then
// Table 8's iteration-balanced Orin pairs in experiments.Table8's order.
func paperProblems() ([]paperProblem, error) {
	var out []paperProblem
	for _, d := range experiments.Table6Defs() {
		p, ok := soc.PlatformByName(d.Platform)
		if !ok {
			return nil, fmt.Errorf("unknown platform %s", d.Platform)
		}
		d := d
		out = append(out, paperProblem{
			name: fmt.Sprintf("t6-exp%d", d.Exp),
			req:  core.Request{Platform: p, Networks: d.Networks, After: d.After, FrameCount: d.FrameCount, Objective: d.Goal},
			t6:   &d,
		})
	}
	orin, ok := soc.PlatformByName("Orin")
	if !ok {
		return nil, fmt.Errorf("unknown platform Orin")
	}
	nets := nn.EvaluationSet()
	lat := make([]float64, len(nets))
	for i, n := range nets {
		lat[i] = perf.NetworkLatencyMs(orin.GPU(), n)
	}
	for i := range nets {
		for j := 0; j <= i; j++ {
			it1, it2 := balanceIterations(lat[i], lat[j])
			out = append(out, paperProblem{
				name: "t8-" + nets[i].Name + "+" + nets[j].Name,
				req: core.Request{
					Platform:   orin,
					Networks:   []string{nets[i].Name, nets[j].Name},
					Iterations: []int{it1, it2},
					Objective:  schedule.MaxThroughput,
				},
			})
		}
	}
	return out, nil
}

// balanceIterations gives the faster DNN proportionally more frames, as
// Table 8 does (Sec. 5.4): the latency ratio rounded and clamped to 1..8.
func balanceIterations(lat1, lat2 float64) (int, int) {
	if lat1 <= 0 || lat2 <= 0 {
		return 1, 1
	}
	clamp := func(x float64) int {
		return int(math.Min(8, math.Max(1, math.Round(x))))
	}
	if r := lat1 / lat2; r >= 1 {
		return 1, clamp(r)
	}
	return clamp(lat2 / lat1), 1
}

// inputs is 1: every pass replays the same input.
func (b *planPaper) inputs() int { return 1 }

func (b *planPaper) pass(_ int, pr *probe) (*passOut, error) {
	out := &passOut{requests: len(b.problems), rounds: len(b.problems)}
	cmps := make([]*core.Comparison, len(b.problems))
	for i, p := range b.problems {
		end := startOp()
		var (
			cmp *core.Comparison
			err error
		)
		if pr == nil {
			cmp, err = core.Compare(p.req)
		} else {
			cmp, err = compareDecomposed(p.req, pr)
		}
		out.ops = append(out.ops, end())
		if err != nil {
			out.failed++
			continue
		}
		cmps[i] = cmp
	}
	out.data = cmps
	if pr == nil && b.ref == nil {
		b.ref = cmps
	}
	return out, nil
}

// compareDecomposed is core.Compare spelled out as its public steps, each
// timed: characterize, fit the contention model, solve, measure the plan
// and every baseline on the ground-truth simulator.
func compareDecomposed(req core.Request, pr *probe) (*core.Comparison, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	prob, prof, err := core.Prepare(req)
	pr.since("profiler.prepare", t)
	runtime.ReadMemStats(&m1)
	pr.add("profiler.alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	if err != nil {
		return nil, err
	}

	t = time.Now()
	model, err := core.Model(req)
	pr.since("contention.fit", t)
	if err != nil {
		return nil, err
	}

	runtime.ReadMemStats(&m0)
	t = time.Now()
	cfg := solver.Config{
		MaxTransitions: req.MaxTransitions,
		Model:          model,
		TimeBudget:     req.TimeBudget,
		Seeds:          []*schedule.Schedule{baselines.GPUOnly(prof), baselines.NaiveConcurrent(prof)},
	}
	best, cost, st, err := solver.OptimizeBB(prob, prof, cfg)
	pr.since("solver.solve", t)
	if len(req.Networks) == 3 {
		pr.since("solver.solve_3net", t)
	}
	runtime.ReadMemStats(&m1)
	pr.add("solver.alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
	if err != nil {
		return nil, err
	}
	pr.add("solver.nodes", float64(st.Nodes))
	pr.add("solver.evals", float64(st.Evals))
	pr.add("solver.pruned", float64(st.Pruned))

	t = time.Now()
	hax, err := core.Measure(prob, prof, best)
	pr.since("sim.measure", t)
	if err != nil {
		return nil, err
	}
	hax.PredictedMs = cost
	if prob.Objective == schedule.MaxThroughput {
		hax.PredictedMs = -cost
	}
	hax.SolverStats = st

	t = time.Now()
	all := baselines.All(prof)
	pr.since("baselines.all", t)
	cmp := &core.Comparison{HaXCoNN: hax, Baselines: map[string]*core.Result{}}
	for _, name := range baselines.Names {
		t = time.Now()
		r, err := core.Measure(prob, prof, all[name])
		pr.since("sim.measure", t)
		if err != nil {
			return nil, fmt.Errorf("measuring %s: %w", name, err)
		}
		cmp.Baselines[name] = r
	}
	return cmp, nil
}

// digestComparisons fingerprints every output of a pass: each plan's
// schedule, predicted and measured results and search counters, and each
// baseline's measured results.
func digestComparisons(cmps []*core.Comparison) string {
	d := newDigest()
	for _, c := range cmps {
		if c == nil {
			d.add("error")
			continue
		}
		h := c.HaXCoNN
		d.add(h.Schedule.Key(), h.PredictedMs, h.MeasuredMs, h.FPS, h.ItemLatencyMs,
			h.SolverStats.Nodes, h.SolverStats.Evals, h.SolverStats.Pruned, h.SolverStats.Complete)
		for _, name := range baselines.Names {
			r := c.Baselines[name]
			d.add(name, r.Schedule.Key(), r.MeasuredMs, r.FPS, r.ItemLatencyMs)
		}
	}
	return d.sum()
}

// check validates every plan: the schedule is valid, reproduces its
// predicted cost under the request's contention model, is no worse than
// the GPU-only and naive seeds it started from, and reproduces its
// measured result on the ground-truth simulator.
func (b *planPaper) check(out *passOut) int {
	out.digest = digestComparisons(out.data.([]*core.Comparison))
	if n, ok := b.checked[out.digest]; ok {
		return n
	}
	failed := 0
	for i, c := range out.data.([]*core.Comparison) {
		if c == nil {
			continue // already counted as failed by the pass
		}
		if err := b.checkPlan(b.problems[i].req, c.HaXCoNN); err != nil {
			fmt.Printf("  CHECK FAILED %s: %v\n", b.problems[i].name, err)
			failed++
		}
	}
	b.checked[out.digest] = failed
	return failed
}

func (b *planPaper) model(req core.Request) (contention.Model, error) {
	if m, ok := b.models[req.Platform.Name]; ok {
		return m, nil
	}
	m, err := core.Model(req)
	if err == nil {
		b.models[req.Platform.Name] = m
	}
	return m, err
}

func (b *planPaper) checkPlan(req core.Request, hax *core.Result) error {
	prob, prof, s := hax.Problem, hax.Profile, hax.Schedule
	if err := s.Validate(prof); err != nil {
		return err
	}
	model, err := b.model(req)
	if err != nil {
		return err
	}
	arb := sim.ModelArbiter{Model: model}
	pred, err := schedule.Evaluate(prob, prof, s, arb)
	if err != nil {
		return err
	}
	want := hax.PredictedMs
	if prob.Objective == schedule.MaxThroughput {
		want = -want
	}
	if pred.Cost != want {
		return fmt.Errorf("predicted cost %v does not reproduce the solver's %v", pred.Cost, want)
	}
	for _, seed := range []*schedule.Schedule{baselines.GPUOnly(prof), baselines.NaiveConcurrent(prof)} {
		ev, err := schedule.Evaluate(prob, prof, seed, arb)
		if err != nil {
			return err
		}
		if pred.Cost > ev.Cost {
			return fmt.Errorf("predicted cost %v is worse than seed %s's %v", pred.Cost, seed.Key(), ev.Cost)
		}
	}
	gt, err := schedule.Evaluate(prob, prof, s, sim.GroundTruth{SatBW: prob.Platform.SatBW()})
	if err != nil {
		return err
	}
	if gt.MakespanMs != hax.MeasuredMs || gt.FPS != hax.FPS {
		return fmt.Errorf("ground truth %v ms / %v fps does not reproduce %v ms / %v fps", gt.MakespanMs, gt.FPS, hax.MeasuredMs, hax.FPS)
	}
	return nil
}

// finish re-solves a seed-chosen sample of the two-network problems by
// exhaustive enumeration and requires branch & bound's cost to match.
func (b *planPaper) finish() int {
	var pairs []int
	for i, p := range b.problems {
		if len(p.req.Networks) == 2 {
			pairs = append(pairs, i)
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	failed := 0
	for _, k := range rng.Perm(len(pairs))[:exhaustiveSample] {
		i := pairs[k]
		if b.ref[i] == nil {
			failed++
			continue
		}
		if err := b.checkExhaustive(b.problems[i].req, b.ref[i].HaXCoNN); err != nil {
			fmt.Printf("  CHECK FAILED %s: %v\n", b.problems[i].name, err)
			failed++
		}
	}
	return failed
}

func (b *planPaper) checkExhaustive(req core.Request, hax *core.Result) error {
	prob, prof, err := core.Prepare(req)
	if err != nil {
		return err
	}
	model, err := b.model(req)
	if err != nil {
		return err
	}
	arb := sim.ModelArbiter{Model: model}
	best := math.Inf(1)
	for _, a := range solver.Candidates(prof, 0, 1) {
		for _, c := range solver.Candidates(prof, 1, 1) {
			ev, err := schedule.Evaluate(prob, prof, &schedule.Schedule{Assign: [][]int{a, c}}, arb)
			if err != nil {
				return err
			}
			best = math.Min(best, ev.Cost)
		}
	}
	got := hax.PredictedMs
	if prob.Objective == schedule.MaxThroughput {
		got = -got
	}
	// Costs agree to floating-point rounding, not bit for bit: branch &
	// bound prunes against a bound computed along another arithmetic path,
	// so of two schedules tied to the last bit it may keep either (on the
	// Table 8 VGG19+ResNet50 pair the two differ by one ulp).
	if math.Abs(got-best) > costTolerance*math.Abs(best) {
		return fmt.Errorf("branch & bound cost %v, exhaustive optimum %v", got, best)
	}
	return nil
}

// gain is HaX-CoNN's measured result over the best baseline in the
// problem's objective, as a ratio (>1 is better).
func gain(obj schedule.Objective, c *core.Comparison) float64 {
	_, base := c.BestBaseline(obj)
	if obj == schedule.MaxThroughput {
		return c.HaXCoNN.FPS / base.FPS
	}
	return base.MeasuredMs / c.HaXCoNN.MeasuredMs
}

func (b *planPaper) sim() map[string]float64 {
	var ms []float64
	met, total := 0, 0.0
	for i, c := range b.ref {
		if c == nil {
			continue
		}
		ms = append(ms, c.HaXCoNN.MeasuredMs)
		total += c.HaXCoNN.MeasuredMs
		if gain(b.problems[i].req.Objective, c) >= 1 {
			met++
		}
	}
	return map[string]float64{
		"sim_p50_ms":   median(ms),
		"sim_slo_pct":  100 * float64(met) / float64(len(b.problems)),
		"sim_device_s": total / 1000,
	}
}

func (b *planPaper) layers(pr *probe, traced []*passOut, m map[string]float64) {
	plans := pr.sums["profiler.prepare.calls"]
	m["profiler.prepare_ms"] = pr.perCall("profiler.prepare")
	m["profiler.alloc_kb"] = pr.mean("profiler.alloc_bytes", "profiler.prepare.calls") / 1024
	m["profiler.prepare_calls"] = plans / float64(len(traced))
	m["contention.fit_ms"] = pr.perCall("contention.fit")
	m["solver.solve_ms"] = pr.perCall("solver.solve")
	m["solver.solve_ms_3net"] = pr.perCall("solver.solve_3net")
	m["solver.nodes"] = pr.mean("solver.nodes", "solver.solve.calls")
	m["solver.evals"] = pr.mean("solver.evals", "solver.solve.calls")
	m["solver.pruned"] = pr.mean("solver.pruned", "solver.solve.calls")
	m["solver.eval_us"] = 1000 * pr.mean("solver.solve", "solver.evals")
	m["solver.alloc_kb"] = pr.mean("solver.alloc_bytes", "solver.solve.calls") / 1024
	m["sim.measure_us"] = 1000 * pr.perCall("sim.measure")
	m["baselines.ms"] = pr.perCall("baselines.all")

	var errPct, logGain, gapPP, ms []float64
	for i, c := range b.ref {
		if c == nil {
			continue
		}
		p := b.problems[i]
		h := c.HaXCoNN
		ms = append(ms, h.MeasuredMs)
		if p.req.Objective == schedule.MaxThroughput {
			errPct = append(errPct, 100*math.Abs(h.PredictedMs-h.FPS)/h.FPS)
		} else {
			errPct = append(errPct, 100*math.Abs(h.PredictedMs-h.MeasuredMs)/h.MeasuredMs)
		}
		g := gain(p.req.Objective, c)
		logGain = append(logGain, math.Log(g))
		if p.t6 != nil {
			paper := p.t6.PaperImprLat
			measured := 1 - 1/g // latency reduction
			if p.req.Objective == schedule.MaxThroughput {
				paper, measured = p.t6.PaperImprFPS, g-1
			}
			gapPP = append(gapPP, 100*math.Abs(measured-paper))
		}
	}
	sort.Float64s(ms)
	m["contention.err_pct"] = mean(errPct)
	m["sim.gain_pct"] = 100 * (math.Exp(mean(logGain)) - 1)
	m["sim.paper_gap_pp"] = mean(gapPP)
	m["sim.p99_ms"] = quantile(ms, 0.99)
}
