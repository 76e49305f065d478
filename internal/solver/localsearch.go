package solver

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"haxconn/internal/schedule"
	"haxconn/internal/sim"
)

// OptimizeLocal is a hill-climbing heuristic over the same candidate space
// as the exact engines: repeated restarts from random per-item candidates,
// improving one item's assignment at a time until a local optimum.
//
// The paper deliberately avoids heuristics ("we target optimal schedules
// ... because we don't resort to heuristics"); this engine exists to
// quantify that choice — BenchmarkAblationLocalSearch reports the
// optimality gap and speed difference against branch & bound.
func OptimizeLocal(prob *schedule.Problem, pr *schedule.Profile, cfg Config, restarts int, seed int64) (*schedule.Schedule, float64, Stats, error) {
	start := time.Now() //detlint:allow walltime anchor for the CPU-spend deadline and Elapsed diagnostics; never feeds byte-compared output
	if cfg.Model == nil {
		return nil, 0, Stats{}, fmt.Errorf("solver: nil contention model")
	}
	if err := prob.Validate(); err != nil {
		return nil, 0, Stats{}, err
	}
	if restarts < 1 {
		restarts = 1
	}
	ev := schedule.NewEvaluator(prob, pr, sim.ModelArbiter{Model: cfg.Model})
	nItems := len(prob.Items)
	cands := make([][][]int, nItems)
	for i := 0; i < nItems; i++ {
		cands[i] = Candidates(pr, i, cfg.maxTransitions())
	}

	var (
		best     *schedule.Schedule
		bestCost = math.Inf(1)
		st       Stats
		s        = &schedule.Schedule{Assign: make([][]int, nItems)}
	)
	cost := func(chosen []int) (float64, error) {
		st.Evals++
		for i, c := range chosen {
			s.Assign[i] = cands[i][c]
		}
		val, err := ev.Cost(s)
		if err != nil {
			return 0, err
		}
		if val < bestCost {
			bestCost = val
			best = s.Clone()
			if cfg.OnImprove != nil {
				//detlint:allow walltime Incumbent.Elapsed is diagnostic; virtual-time replays ride the Evals counter, not wall time
				cfg.OnImprove(Incumbent{Schedule: best, Cost: bestCost, Elapsed: time.Since(start), Nodes: st.Evals})
			}
		}
		return val, nil
	}
	for _, seedSched := range cfg.Seeds {
		if err := seedSched.Validate(pr); err != nil {
			return nil, 0, st, fmt.Errorf("solver: bad seed: %w", err)
		}
		val, err := ev.Cost(seedSched)
		if err != nil {
			return nil, 0, st, err
		}
		st.Evals++
		if val < bestCost {
			bestCost = val
			best = seedSched.Clone()
		}
	}

	chosen := make([]int, nItems)
	for r := 0; r < restarts; r++ {
		// Each restart draws its starting point from an independent
		// source (seed + restart index), so a restart's trajectory does
		// not depend on how many restarts ran before it.
		rng := rand.New(rand.NewSource(seed + int64(r)))
		for i := range chosen {
			chosen[i] = rng.Intn(len(cands[i]))
		}
		cur, err := cost(chosen)
		if err != nil {
			return nil, 0, st, err
		}
		for improved := true; improved; {
			improved = false
			st.Nodes++
			for i := 0; i < nItems; i++ {
				orig := chosen[i]
				for c := range cands[i] {
					if c == orig {
						continue
					}
					chosen[i] = c
					alt, err := cost(chosen)
					if err != nil {
						return nil, 0, st, err
					}
					if alt < cur-1e-12 {
						cur = alt
						improved = true
					} else {
						chosen[i] = orig
					}
				}
			}
		}
	}
	st.Complete = true
	st.Elapsed = time.Since(start) //detlint:allow walltime Stats.Elapsed is diagnostic wall time, excluded from byte-compared summaries
	if best == nil {
		return nil, 0, st, fmt.Errorf("solver: local search produced no schedule")
	}
	return best, bestCost, st, nil
}
