package solver

import (
	"fmt"
	"math"
	"time"

	"haxconn/internal/sat"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
)

// satEncoding holds the variable layout of the SAT formulation (Eq. 1 and
// Eq. 3 of the paper as booleans).
type satEncoding struct {
	s *sat.Solver
	// x[i][g][k]: group g of item i runs on allowed-accelerator k.
	x [][][]int
	// allowed maps the inner index k to a platform accelerator index.
	allowed []int
}

// encode builds the constraint system: exactly-one accelerator per group
// and at most maxTransitions accelerator switches per item (sequential-
// counter cardinality encoding).
func encode(pr *schedule.Profile, maxTransitions int) (*satEncoding, error) {
	e := &satEncoding{s: sat.New(), allowed: pr.Allowed}
	nA := len(pr.Allowed)
	for i := range pr.Groups {
		groups := pr.NumGroups(i)
		xi := make([][]int, groups)
		for g := 0; g < groups; g++ {
			xi[g] = make([]int, nA)
			for k := 0; k < nA; k++ {
				xi[g][k] = e.s.NewVar()
			}
			// Eq. 1: every group runs on exactly one accelerator.
			if err := e.s.ExactlyOne(xi[g]...); err != nil {
				return nil, err
			}
		}
		e.x = append(e.x, xi)

		// Transition indicators t_g for g in 1..groups-1.
		var ts []int
		for g := 1; g < groups; g++ {
			t := e.s.NewVar()
			ts = append(ts, t)
			for k := 0; k < nA; k++ {
				// same accelerator on both sides -> no transition
				if err := e.s.AddClause(-xi[g-1][k], -xi[g][k], -t); err != nil {
					return nil, err
				}
				// different accelerators -> transition
				if err := e.s.AddClause(-xi[g-1][k], xi[g][k], t); err != nil {
					return nil, err
				}
			}
		}
		// Eq. 3 budget: at most maxTransitions accelerator switches.
		if err := e.s.AtMostK(ts, maxTransitions); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// decode reads the current SAT model into a schedule.
func (e *satEncoding) decode() *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(e.x))}
	for i, xi := range e.x {
		s.Assign[i] = make([]int, len(xi))
		for g, row := range xi {
			s.Assign[i][g] = e.allowed[0]
			for k, v := range row {
				if e.s.Value(v) {
					s.Assign[i][g] = e.allowed[k]
					break
				}
			}
		}
	}
	return s
}

// block adds a clause excluding the current model's assignment.
func (e *satEncoding) block(s *schedule.Schedule) error {
	var cl []int
	for i, xi := range e.x {
		for g, row := range xi {
			for k, v := range row {
				if e.allowed[k] == s.Assign[i][g] {
					cl = append(cl, -v)
				}
			}
		}
	}
	return e.s.AddClause(cl...)
}

// OptimizeSAT finds the minimum-cost schedule by SAT-based model
// enumeration: every satisfying assignment of the constraint system is
// costed with the analytic evaluator and blocked; when the formula becomes
// UNSAT the incumbent is provably optimal over the constrained space.
func OptimizeSAT(prob *schedule.Problem, pr *schedule.Profile, cfg Config) (*schedule.Schedule, float64, Stats, error) {
	start := time.Now() //detlint:allow walltime anchor for the CPU-spend deadline and Elapsed diagnostics; never feeds byte-compared output
	if cfg.Model == nil {
		return nil, 0, Stats{}, fmt.Errorf("solver: nil contention model")
	}
	if err := prob.Validate(); err != nil {
		return nil, 0, Stats{}, err
	}
	enc, err := encode(pr, cfg.maxTransitions())
	if err != nil {
		return nil, 0, Stats{}, err
	}
	ev := schedule.NewEvaluator(prob, pr, sim.ModelArbiter{Model: cfg.Model})

	var (
		best     *schedule.Schedule
		bestCost = math.Inf(1)
		st       Stats
	)
	consider := func(s *schedule.Schedule) error {
		st.Evals++
		cost, err := ev.Cost(s)
		if err != nil {
			return err
		}
		if cost < bestCost {
			bestCost = cost
			best = s.Clone()
			if cfg.OnImprove != nil {
				//detlint:allow walltime Incumbent.Elapsed is diagnostic; virtual-time replays ride the Nodes counter, not wall time
				cfg.OnImprove(Incumbent{Schedule: best, Cost: bestCost, Elapsed: time.Since(start), Nodes: st.Nodes})
			}
		}
		return nil
	}
	for _, seed := range cfg.Seeds {
		if err := seed.Validate(pr); err != nil {
			return nil, 0, st, fmt.Errorf("solver: bad seed: %w", err)
		}
		if err := consider(seed); err != nil {
			return nil, 0, st, err
		}
	}

	deadline := time.Time{}
	if cfg.TimeBudget > 0 {
		deadline = start.Add(cfg.TimeBudget)
	}
	st.Complete = true
	for {
		// The deadline gates every Solve: one model search can overshoot
		// a tight budget unboundedly, so checking only after the model is
		// costed and blocked is not enough.
		//detlint:allow walltime solver deadline caps real CPU spend; expiry truncates enumeration and is reported honestly in Stats.Complete
		if !deadline.IsZero() && time.Now().After(deadline) {
			st.Complete = false
			break
		}
		if enc.s.Solve() != sat.Sat {
			break
		}
		st.Nodes++
		s := enc.decode()
		if err := consider(s); err != nil {
			return nil, 0, st, err
		}
		if err := enc.block(s); err != nil {
			return nil, 0, st, err
		}
	}
	st.Elapsed = time.Since(start) //detlint:allow walltime Stats.Elapsed is diagnostic wall time, excluded from byte-compared summaries
	if best == nil {
		return nil, 0, st, fmt.Errorf("solver: SAT search produced no schedule")
	}
	return best, bestCost, st, nil
}

// Anytime records the improvement history of a D-HaX-CoNN run: the solver
// is started alongside the executing workload with a naive initial
// schedule, and each improvement it reports is what the runtime would
// deploy at that instant (Sec. 3.5 / Fig. 7).
type Anytime struct {
	History []Incumbent
	Best    *schedule.Schedule
	Cost    float64
	Stats   Stats
	// Seed is the configured initial schedule (cfg.Seeds[0]), the fallback
	// ScheduleAt/ScheduleAtNodes deploy before any incumbent has landed.
	Seed *schedule.Schedule
}

// RunAnytime runs the branch & bound engine, capturing every incumbent.
// Seeds must contain at least the initial (naive) schedule the runtime
// starts with.
func RunAnytime(prob *schedule.Problem, pr *schedule.Profile, cfg Config) (*Anytime, error) {
	a := &Anytime{}
	if len(cfg.Seeds) > 0 {
		a.Seed = cfg.Seeds[0]
	}
	prev := cfg.OnImprove
	cfg.OnImprove = func(inc Incumbent) {
		a.History = append(a.History, inc)
		if prev != nil {
			prev(inc)
		}
	}
	best, cost, st, err := OptimizeBB(prob, pr, cfg)
	if err != nil {
		return nil, err
	}
	a.Best, a.Cost, a.Stats = best, cost, st
	return a, nil
}

// scheduleWhere returns the last incumbent satisfying the landed
// predicate, falling back to the configured naive seed when none has
// landed yet — an incumbent the solver has not yet found cannot be
// deployed, so unseeded runs report nil until the first improvement
// lands.
func (a *Anytime) scheduleWhere(landed func(Incumbent) bool) *schedule.Schedule {
	var cur *schedule.Schedule
	for _, inc := range a.History {
		if landed(inc) {
			cur = inc.Schedule
		}
	}
	if cur == nil {
		return a.Seed
	}
	return cur
}

// ScheduleAt returns the schedule the runtime would be using after the
// given solver wall-time has elapsed: the last incumbent found no later
// than elapsed.
func (a *Anytime) ScheduleAt(elapsed time.Duration) *schedule.Schedule {
	return a.scheduleWhere(func(inc Incumbent) bool { return inc.Elapsed <= elapsed })
}

// ScheduleAtNodes returns the schedule the runtime would be using after the
// given amount of search work: the last incumbent found within nodes search
// nodes. Because node counts (unlike wall time) are deterministic for a
// given problem, replays of the incumbent stream against a virtual clock
// are reproducible — internal/serve's schedule cache deploys upgrades
// through this entry point.
func (a *Anytime) ScheduleAtNodes(nodes int) *schedule.Schedule {
	return a.scheduleWhere(func(inc Incumbent) bool { return inc.Nodes <= nodes })
}
