package experiments

import (
	"haxconn/internal/baselines"
	"haxconn/internal/contention"
	"haxconn/internal/core"
	"haxconn/internal/profiler"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
	"haxconn/internal/solver"
)

// AblationResult compares a design variant against the full system on the
// same workload, both measured on ground truth.
type AblationResult struct {
	Name      string
	FullMs    float64
	VariantMs float64
	// PenaltyPct is how much slower the variant's chosen schedule runs
	// (positive = the ablated component was pulling its weight).
	PenaltyPct float64
}

// ablationWorkload is the instance the ablations run on: the VGG19 +
// ResNet152 latency scenario of experiments 1/6.
func ablationWorkload(plat string) core.Request {
	p, _ := soc.PlatformByName(plat)
	return core.Request{
		Platform:  p,
		Networks:  []string{"VGG19", "ResNet152"},
		Objective: schedule.MinMaxLatency,
	}
}

// AblationNoContention solves with the contention model disabled and
// measures the chosen schedule on ground truth (the "what if HaX-CoNN
// ignored shared memory like Herald/H2H" experiment).
func AblationNoContention(plat string) (*AblationResult, error) {
	req := ablationWorkload(plat)
	full, err := core.Plan(req)
	if err != nil {
		return nil, err
	}
	req.ContentionModel = contention.None{}
	variant, err := core.Plan(req)
	if err != nil {
		return nil, err
	}
	return ablation("no-contention-model", full.MeasuredMs, variant.MeasuredMs), nil
}

// AblationNoTransitionCost zeroes the transition-cost tables during
// solving, then measures the chosen schedule with real transition costs.
func AblationNoTransitionCost(plat string) (*AblationResult, error) {
	req := ablationWorkload(plat)
	full, err := core.Plan(req)
	if err != nil {
		return nil, err
	}
	// Re-solve with a transition-blind profile.
	prob := full.Problem
	pr, err := profiler.Characterize(prob, profiler.Options{})
	if err != nil {
		return nil, err
	}
	blind := *pr
	blind.TransOutMs = zeroed(pr.TransOutMs)
	blind.TransInMs = zeroed(pr.TransInMs)
	model, err := core.Model(req)
	if err != nil {
		return nil, err
	}
	s, _, _, err := solver.OptimizeBB(prob, &blind, solver.Config{
		Model: model,
		Seeds: []*schedule.Schedule{baselines.GPUOnly(&blind)},
	})
	if err != nil {
		return nil, err
	}
	// Measure with the *real* profile: transitions now cost what they cost.
	m, err := core.Measure(prob, pr, s)
	if err != nil {
		return nil, err
	}
	return ablation("no-transition-cost", full.MeasuredMs, m.MeasuredMs), nil
}

// AblationGranularityPoint is one point of the group-count sweep: the
// measured plan and the search it took.
type AblationGranularityPoint struct {
	MaxGroups   int
	MeasuredMs  float64
	SolverNodes int
	SolverEvals int
}

// AblationGranularity sweeps the layer-group cap: coarser groups shrink
// the search space but forfeit transition points.
func AblationGranularity(plat string, caps []int) ([]AblationGranularityPoint, error) {
	var pts []AblationGranularityPoint
	for _, c := range caps {
		req := ablationWorkload(plat)
		req.MaxGroups = c
		res, err := core.Plan(req)
		if err != nil {
			return nil, err
		}
		pts = append(pts, AblationGranularityPoint{
			MaxGroups:   c,
			MeasuredMs:  res.MeasuredMs,
			SolverNodes: res.SolverStats.Nodes,
			SolverEvals: res.SolverStats.Evals,
		})
	}
	return pts, nil
}

// ContentionReduction quantifies the headline "minimizes memory contention
// by up to 45%" claim: total over-saturation time (intervals whose demand
// exceeds the saturation bandwidth) under the naive schedule vs HaX-CoNN.
type ContentionReduction struct {
	NaiveOversatMs float64
	HaXOversatMs   float64
	ReductionPct   float64
}

// MeasureContentionReduction runs the VGG19+ResNet152 pair and integrates
// over-saturated interval time from the simulator timelines.
func MeasureContentionReduction(plat string) (*ContentionReduction, error) {
	req := ablationWorkload(plat)
	cmp, err := core.Compare(req)
	if err != nil {
		return nil, err
	}
	p := req.Platform
	pr := cmp.HaXCoNN.Profile
	prob := cmp.HaXCoNN.Problem
	oversat := func(s *schedule.Schedule) (float64, error) {
		gt := sim.GroundTruth{SatBW: p.SatBW()}
		ev, err := schedule.Evaluate(prob, pr, s, gt)
		if err != nil {
			return 0, err
		}
		var tot float64
		for _, iv := range ev.Result.Intervals {
			if iv.TotalDemand > p.SatBW() {
				tot += iv.EndMs - iv.StartMs
			}
		}
		return tot, nil
	}
	naive, err := oversat(baselines.NaiveConcurrent(pr))
	if err != nil {
		return nil, err
	}
	hax, err := oversat(cmp.HaXCoNN.Schedule)
	if err != nil {
		return nil, err
	}
	r := &ContentionReduction{NaiveOversatMs: naive, HaXOversatMs: hax}
	if naive > 0 {
		r.ReductionPct = 100 * (naive - hax) / naive
	}
	return r, nil
}

func zeroed(t [][][]float64) [][][]float64 {
	out := make([][][]float64, len(t))
	for i := range t {
		out[i] = make([][]float64, len(t[i]))
		for g := range t[i] {
			out[i][g] = make([]float64, len(t[i][g]))
		}
	}
	return out
}

func ablation(name string, full, variant float64) *AblationResult {
	r := &AblationResult{Name: name, FullMs: full, VariantMs: variant}
	if full > 0 {
		r.PenaltyPct = 100 * (variant - full) / full
	}
	return r
}

// QueueingAnalysis quantifies the Sec. 5.2 observation that Herald/H2H
// over-subscribe accelerators ("two layer groups ... end up waiting for
// each other ... the other accelerator is left idle"): total induced
// queueing per schedule on a representative pair.
type QueueingAnalysis struct {
	QueueingMs map[string]float64 // per scheduler
}

// MeasureQueueing runs the VGG19+ResNet152 pair on Xavier and reports the
// Eq. 9 queueing residual of every baseline and of HaX-CoNN.
func MeasureQueueing(plat string) (*QueueingAnalysis, error) {
	req := ablationWorkload(plat)
	cmp, err := core.Compare(req)
	if err != nil {
		return nil, err
	}
	prob, pr := cmp.HaXCoNN.Problem, cmp.HaXCoNN.Profile
	gt := sim.GroundTruth{SatBW: req.Platform.SatBW()}
	out := &QueueingAnalysis{QueueingMs: map[string]float64{}}
	schedules := baselines.All(pr)
	for name, s := range schedules {
		ev, err := schedule.Evaluate(prob, pr, s, gt)
		if err != nil {
			return nil, err
		}
		out.QueueingMs[name] = schedule.QueueingMs(ev)
	}
	ev, err := schedule.Evaluate(prob, pr, cmp.HaXCoNN.Schedule, gt)
	if err != nil {
		return nil, err
	}
	out.QueueingMs["HaX-CoNN"] = schedule.QueueingMs(ev)
	return out, nil
}
