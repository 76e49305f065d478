// Package core is the public face of HaX-CoNN: the end-to-end pipeline of
// Fig. 2 — layer grouping, per-layer and transition characterization,
// shared-memory contention modeling, constraint formulation and optimal
// schedule generation — plus measurement of the produced schedules on the
// ground-truth simulator and the D-HaX-CoNN dynamic runtime.
//
// Typical use:
//
//	req := core.Request{
//	    Platform:  soc.Orin(),
//	    Networks:  []string{"VGG19", "ResNet152"},
//	    Objective: schedule.MinMaxLatency,
//	}
//	res, err := core.Plan(req)
//	// res.Schedule, res.MeasuredMs, res.FPS, ...
package core

import (
	"fmt"
	"sync"
	"time"

	"haxconn/internal/baselines"
	"haxconn/internal/contention"
	"haxconn/internal/nn"
	"haxconn/internal/profiler"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
	"haxconn/internal/solver"
)

// Request describes a concurrent-DNN scheduling request.
type Request struct {
	// Platform is the target SoC (required).
	Platform *soc.Platform
	// Networks names the DNNs to run concurrently (zoo names, required).
	Networks []string
	// After[i] lists indices of networks that must complete before network
	// i starts (pipelines); nil for fully concurrent execution.
	After [][]int
	// Iterations[i] repeats network i's inference (frame balancing,
	// Sec. 5.4); nil or zero entries mean one iteration.
	Iterations []int
	// Objective selects Eq. 10 (MaxThroughput) or Eq. 11 (MinMaxLatency).
	Objective schedule.Objective
	// FrameCount overrides the frame count for FPS (see
	// schedule.Problem.FrameCount); streaming pipelines set 1.
	FrameCount int
	// MaxGroups caps layer groups per network (0 = nn.DefaultMaxGroups).
	MaxGroups int
	// MaxTransitions bounds accelerator switches per network (0 = 1).
	MaxTransitions int
	// ContentionModel overrides the fitted PCCS model (ablations).
	ContentionModel contention.Model
	// TimeBudget bounds solver time (0 = run to optimality).
	TimeBudget time.Duration
}

// Result is a planned and measured schedule.
type Result struct {
	// Schedule is the chosen layer-group mapping.
	Schedule *schedule.Schedule
	// Description renders the mapping human-readably.
	Description string
	// PredictedMs is the solver's model-predicted makespan (or objective
	// latency); MeasuredMs is the ground-truth simulator's.
	PredictedMs float64
	MeasuredMs  float64
	// FPS is the measured throughput over all frames.
	FPS float64
	// ItemLatencyMs is the measured per-network latency.
	ItemLatencyMs []float64
	// SolverStats reports the search effort.
	SolverStats solver.Stats
	// Profile and Problem allow further evaluation by the caller.
	Profile *schedule.Profile
	Problem *schedule.Problem
}

// buildProblem resolves the request into a problem statement.
func buildProblem(req Request) (*schedule.Problem, error) {
	if req.Platform == nil {
		return nil, fmt.Errorf("core: nil platform")
	}
	if len(req.Networks) == 0 {
		return nil, fmt.Errorf("core: no networks")
	}
	prob := &schedule.Problem{Platform: req.Platform, Objective: req.Objective, FrameCount: req.FrameCount}
	for i, name := range req.Networks {
		net, err := nn.ByName(name)
		if err != nil {
			return nil, err
		}
		item := schedule.Item{Net: net, Iterations: 1}
		if i < len(req.Iterations) && req.Iterations[i] > 1 {
			item.Iterations = req.Iterations[i]
		}
		if i < len(req.After) {
			item.After = append([]int(nil), req.After[i]...)
		}
		prob.Items = append(prob.Items, item)
	}
	return prob, prob.Validate()
}

// Model returns the contention model for a request: the configured one, or
// a PCCS model fitted to the platform (Sec. 3.3). Like the paper, which fits
// PCCS once per SoC, every request on one saturation bandwidth shares a fit.
func Model(req Request) (contention.Model, error) {
	if req.ContentionModel != nil {
		return req.ContentionModel, nil
	}
	satBW := req.Platform.SatBW()
	if m, ok := fits.Load(satBW); ok {
		return m.(contention.Model), nil
	}
	m, err := contention.FitPCCS(satBW, 16)
	if err != nil {
		return nil, err
	}
	shared, _ := fits.LoadOrStore(satBW, m)
	return shared.(contention.Model), nil
}

// fits maps a saturation bandwidth to Model's shared *contention.PCCS fit.
var fits sync.Map

// Plan runs the full HaX-CoNN pipeline: characterize, formulate, solve,
// and measure the optimal schedule on the ground-truth simulator.
func Plan(req Request) (*Result, error) {
	prob, pr, err := Prepare(req)
	if err != nil {
		return nil, err
	}
	model, err := Model(req)
	if err != nil {
		return nil, err
	}
	cfg := solver.Config{
		MaxTransitions: req.MaxTransitions,
		Model:          model,
		TimeBudget:     req.TimeBudget,
		// Seeding with the naive baselines yields the paper's guarantee
		// that HaX-CoNN never underperforms them (Sec. 5.2, Scenario 3).
		Seeds: []*schedule.Schedule{baselines.GPUOnly(pr), baselines.NaiveConcurrent(pr)},
	}
	best, cost, st, err := solver.OptimizeBB(prob, pr, cfg)
	if err != nil {
		return nil, err
	}
	res, err := Measure(prob, pr, best)
	if err != nil {
		return nil, err
	}
	res.PredictedMs = cost
	if prob.Objective == schedule.MaxThroughput {
		res.PredictedMs = -cost // cost is negated FPS; report positive
	}
	res.SolverStats = st
	return res, nil
}

// Measure evaluates any schedule on the ground-truth simulator and wraps
// the outcome in a Result. It records no timeline; schedule.Evaluate under
// sim.GroundTruth does, with the same figures.
func Measure(prob *schedule.Problem, pr *schedule.Profile, s *schedule.Schedule) (*Result, error) {
	return measure(prob, pr, groundTruth(prob, pr), s)
}

// groundTruth returns a timeline-free ground-truth evaluator for the
// problem.
func groundTruth(prob *schedule.Problem, pr *schedule.Profile) *schedule.Evaluator {
	return schedule.NewEvaluator(prob, pr, sim.GroundTruth{SatBW: prob.Platform.SatBW()})
}

// measure is Measure on a caller's ground-truth evaluator, so several
// schedules of one problem share its buffers.
func measure(prob *schedule.Problem, pr *schedule.Profile, gt *schedule.Evaluator, s *schedule.Schedule) (*Result, error) {
	ev, err := gt.Evaluate(s)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:      s,
		Description:   s.Describe(pr),
		MeasuredMs:    ev.MakespanMs,
		FPS:           ev.FPS,
		ItemLatencyMs: ev.ItemLatencyMs,
		Profile:       pr,
		Problem:       prob,
	}, nil
}

// Comparison holds HaX-CoNN against every baseline on one request, all
// measured on the ground-truth simulator.
type Comparison struct {
	HaXCoNN   *Result
	Baselines map[string]*Result
}

// BestBaseline returns the name and result of the best-performing baseline
// under the request's objective.
func (c *Comparison) BestBaseline(obj schedule.Objective) (string, *Result) {
	var bestName string
	var best *Result
	for _, name := range baselines.Names {
		r, ok := c.Baselines[name]
		if !ok {
			continue
		}
		if best == nil || better(obj, r, best) {
			best, bestName = r, name
		}
	}
	return bestName, best
}

func better(obj schedule.Objective, a, b *Result) bool {
	if obj == schedule.MaxThroughput {
		return a.FPS > b.FPS
	}
	return a.MeasuredMs < b.MeasuredMs
}

// Improvement returns HaX-CoNN's relative gain over the best baseline:
// latency reduction or FPS increase, as a fraction (0.23 = 23%).
func (c *Comparison) Improvement(obj schedule.Objective) float64 {
	_, base := c.BestBaseline(obj)
	if base == nil {
		return 0
	}
	if obj == schedule.MaxThroughput {
		if base.FPS <= 0 {
			return 0
		}
		return c.HaXCoNN.FPS/base.FPS - 1
	}
	if c.HaXCoNN.MeasuredMs <= 0 {
		return 0
	}
	return 1 - c.HaXCoNN.MeasuredMs/base.MeasuredMs
}

// Compare plans the request with HaX-CoNN and measures every baseline on
// the same problem (the experiment harness behind Tables 6 and 8).
func Compare(req Request) (*Comparison, error) {
	hax, err := Plan(req)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{HaXCoNN: hax, Baselines: map[string]*Result{}}
	gt := groundTruth(hax.Problem, hax.Profile)
	for name, s := range baselines.All(hax.Profile) {
		r, err := measure(hax.Problem, hax.Profile, gt, s)
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s: %w", name, err)
		}
		cmp.Baselines[name] = r
	}
	return cmp, nil
}

// Prepare resolves and characterizes a request without solving it: the
// problem statement plus the offline profiling tables, which the profiler
// computes once per platform and network and shares between calls.
func Prepare(req Request) (*schedule.Problem, *schedule.Profile, error) {
	prob, err := buildProblem(req)
	if err != nil {
		return nil, nil, err
	}
	pr, err := profiler.Characterize(prob, profiler.Options{MaxGroups: req.MaxGroups})
	if err != nil {
		return nil, nil, err
	}
	return prob, pr, nil
}

// AnytimeFromProfile runs the anytime branch & bound on an already
// characterized problem (from Prepare), seeded with the naive baselines so
// the incumbent stream starts at a deployable schedule immediately — the
// plan-from-cache entry point of the serving runtime: a cached profile is
// re-solved in the background while serving continues on the current best.
func AnytimeFromProfile(req Request, prob *schedule.Problem, pr *schedule.Profile) (*solver.Anytime, error) {
	return AnytimeFromProfileSeeded(req, prob, pr)
}

// AnytimeFromProfileSeeded is AnytimeFromProfile with extra seed schedules
// evaluated ahead of the search, after the naive baselines. A schedule
// transferred from another platform's solved cache entry (internal/serve's
// cross-platform cache seeding) enters here: if it beats the naive seeds it
// becomes the incumbent deployed at zero search nodes, so a freshly joined
// device serves its first rounds on the transferred schedule instead of a
// naive one.
func AnytimeFromProfileSeeded(req Request, prob *schedule.Problem, pr *schedule.Profile, extra ...*schedule.Schedule) (*solver.Anytime, error) {
	model, err := Model(req)
	if err != nil {
		return nil, err
	}
	seeds := []*schedule.Schedule{baselines.NaiveConcurrent(pr), baselines.GPUOnly(pr)}
	for _, s := range extra {
		if s != nil {
			seeds = append(seeds, s)
		}
	}
	return solver.RunAnytime(prob, pr, solver.Config{
		MaxTransitions: req.MaxTransitions,
		Model:          model,
		TimeBudget:     req.TimeBudget,
		Seeds:          seeds,
	})
}

// PlanDynamic runs the D-HaX-CoNN flow: start from the best naive schedule
// and let the anytime solver stream improvements, recording the incumbent
// history so the runtime can deploy progressively better schedules
// (Sec. 3.5, Fig. 7).
func PlanDynamic(req Request) (*solver.Anytime, *schedule.Problem, *schedule.Profile, error) {
	prob, pr, err := Prepare(req)
	if err != nil {
		return nil, nil, nil, err
	}
	any, err := AnytimeFromProfile(req, prob, pr)
	if err != nil {
		return nil, nil, nil, err
	}
	return any, prob, pr, nil
}
