// Package solver generates optimal schedules for the HaX-CoNN problem
// (Sec. 3.5 of the paper). Two complete engines are provided:
//
//   - OptimizeBB: branch & bound over per-network assignment candidates
//     with an admissible contention-free lower bound. It is anytime —
//     improvements are reported as found — and powers D-HaX-CoNN.
//
//   - OptimizeSAT: the Z3-style path. Assignment booleans, exactly-one and
//     transition-budget constraints (sequential-counter at-most-k) are
//     handed to the CDCL solver in internal/sat; models are enumerated,
//     costed with the analytic evaluator and blocked until UNSAT, which
//     proves optimality of the incumbent.
//
// Both engines optimize the *predicted* cost: the analytic evaluator under
// a contention model. Measured results always come from re-running the
// chosen schedule on the ground-truth simulator.
package solver

import (
	"fmt"
	"math"
	"sort"
	"time"

	"haxconn/internal/contention"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
)

// Config controls an optimization run.
type Config struct {
	// MaxTransitions bounds inter-accelerator transitions per network
	// (default 1 — every optimal schedule in the paper's Table 6 uses a
	// single transition per DNN; raise it for the granularity ablation).
	MaxTransitions int
	// Model is the contention model used for prediction (required; use
	// contention.None for the contention-unaware ablation).
	Model contention.Model
	// TimeBudget stops the search early; zero means run to completion.
	TimeBudget time.Duration
	// OnImprove, if set, is invoked for every new incumbent.
	OnImprove func(Incumbent)
	// Seeds are schedules evaluated before the search starts (e.g. the
	// naive baselines), establishing the paper's never-worse guarantee.
	Seeds []*schedule.Schedule
}

func (c Config) maxTransitions() int {
	if c.MaxTransitions < 0 {
		return 0
	}
	if c.MaxTransitions == 0 {
		return 1
	}
	return c.MaxTransitions
}

// Incumbent is a best-so-far schedule found during the search.
type Incumbent struct {
	Schedule *schedule.Schedule
	Cost     float64
	Elapsed  time.Duration
	// Nodes is the search work done when the incumbent was found: B&B
	// nodes expanded, SAT models enumerated, or local-search evaluations.
	// Unlike Elapsed it is deterministic for a given problem, so virtual-
	// time replays of the incumbent stream (internal/serve's schedule
	// cache) are reproducible run to run.
	Nodes int
}

// Stats summarizes a search.
type Stats struct {
	Nodes    int           // search nodes explored (B&B) or models enumerated (SAT)
	Evals    int           // full schedule evaluations
	Pruned   int           // subtrees cut by the lower bound
	Complete bool          // false if the time budget expired first
	Elapsed  time.Duration // wall time
}

// Candidates enumerates all per-item assignment vectors with at most
// maxTransitions accelerator switches, over the profile's allowed
// accelerators.
func Candidates(pr *schedule.Profile, item, maxTransitions int) [][]int {
	groups := pr.NumGroups(item)
	var out [][]int
	cur := make([]int, groups)
	var rec func(g, trans int)
	rec = func(g, trans int) {
		if g == groups {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, a := range pr.Allowed {
			t := trans
			if g > 0 && cur[g-1] != a {
				t++
				if t > maxTransitions {
					continue
				}
			}
			cur[g] = a
			rec(g+1, t)
		}
	}
	rec(0, 0)
	return out
}

// OptimizeBB finds the minimum-cost schedule by branch & bound. It returns
// the best schedule, its predicted cost, and search statistics.
func OptimizeBB(prob *schedule.Problem, pr *schedule.Profile, cfg Config) (*schedule.Schedule, float64, Stats, error) {
	start := time.Now() //detlint:allow walltime anchor for the CPU-spend deadline and Elapsed diagnostics; never feeds byte-compared output
	if cfg.Model == nil {
		return nil, 0, Stats{}, fmt.Errorf("solver: nil contention model")
	}
	if err := prob.Validate(); err != nil {
		return nil, 0, Stats{}, err
	}
	ev := schedule.NewEvaluator(prob, pr, sim.ModelArbiter{Model: cfg.Model})
	nItems := len(prob.Items)

	// Per-item candidates, sorted by contention-free latency so good
	// incumbents appear early.
	cands := make([][][]int, nItems)
	base := make([][]float64, nItems)
	for i := 0; i < nItems; i++ {
		cands[i] = Candidates(pr, i, cfg.maxTransitions())
		base[i] = make([]float64, len(cands[i]))
		tmp := &schedule.Schedule{Assign: make([][]int, nItems)}
		for c, assign := range cands[i] {
			tmp.Assign[i] = assign
			base[i][c] = schedule.BaseLatencyMs(pr, tmp, i, prob.Items[i].Iterations)
		}
		order := make([]int, len(cands[i]))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return base[i][order[a]] < base[i][order[b]] })
		sortedC := make([][]int, len(order))
		sortedB := make([]float64, len(order))
		for k, o := range order {
			sortedC[k] = cands[i][o]
			sortedB[k] = base[i][o]
		}
		cands[i], base[i] = sortedC, sortedB
	}
	minBase := make([]float64, nItems)
	for i := range minBase {
		minBase[i] = base[i][0]
	}

	var (
		best     *schedule.Schedule
		bestCost = math.Inf(1)
		st       Stats
	)
	// evaluate clones s when it becomes the incumbent, so callers may
	// reuse s afterwards.
	evaluate := func(s *schedule.Schedule) error {
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
		if err := evaluate(seed); err != nil {
			return nil, 0, st, err
		}
	}

	// Lower bound of a partial assignment: the longest dependency-chain of
	// per-item contention-free latencies (chosen for decided items, best
	// possible for undecided ones). Contention and same-accelerator
	// queueing only add time, so this is admissible.
	itemLB := make([]float64, nItems)
	var paths pathMemo
	lower := func(chosen []int, depth int) float64 {
		for i := 0; i < nItems; i++ {
			if i < depth {
				itemLB[i] = base[i][chosen[i]]
			} else {
				itemLB[i] = minBase[i]
			}
		}
		return paths.criticalPath(prob, itemLB)
	}
	costLB := func(lb float64) float64 {
		if prob.Objective == schedule.MaxThroughput {
			if lb <= 0 {
				return math.Inf(-1)
			}
			return -1000 * float64(prob.Frames()) / lb
		}
		return lb
	}

	chosen := make([]int, nItems)
	leaf := &schedule.Schedule{Assign: make([][]int, nItems)}
	deadline := time.Time{}
	if cfg.TimeBudget > 0 {
		deadline = start.Add(cfg.TimeBudget)
	}
	expired := false
	var dfs func(depth int) error
	dfs = func(depth int) error {
		if expired {
			return nil
		}
		//detlint:allow walltime solver deadline caps real CPU spend; expiry truncates search and is reported honestly in Stats.Complete
		if !deadline.IsZero() && time.Now().After(deadline) {
			expired = true
			return nil
		}
		st.Nodes++
		if depth == nItems {
			for i := 0; i < nItems; i++ {
				leaf.Assign[i] = cands[i][chosen[i]]
			}
			return evaluate(leaf)
		}
		for c := range cands[depth] {
			chosen[depth] = c
			if costLB(lower(chosen, depth+1)) >= bestCost {
				st.Pruned++
				// Candidates are sorted by base latency: for the latency
				// objective, later candidates only have larger bounds.
				if prob.Objective == schedule.MinMaxLatency {
					break
				}
				continue
			}
			if err := dfs(depth + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return nil, 0, st, err
	}
	st.Complete = !expired
	st.Elapsed = time.Since(start) //detlint:allow walltime Stats.Elapsed is diagnostic wall time, excluded from byte-compared summaries
	if best == nil {
		return nil, 0, st, fmt.Errorf("solver: search produced no schedule")
	}
	return best, bestCost, st, nil
}

// pathMemo is criticalPath's scratch, kept across branch & bound's
// lower-bound calls.
type pathMemo struct {
	finish []float64
	done   []bool
}

// criticalPath returns the longest path through the item dependency DAG
// where node weights are the per-item latencies.
func (m *pathMemo) criticalPath(prob *schedule.Problem, lat []float64) float64 {
	n := len(prob.Items)
	if len(m.done) < n {
		m.finish, m.done = make([]float64, n), make([]bool, n)
	}
	clear(m.done)
	worst := 0.0
	for i := 0; i < n; i++ {
		if f := m.finishAt(prob, lat, i); f > worst {
			worst = f
		}
	}
	return worst
}

// finishAt returns item i's finish time on the longest path.
func (m *pathMemo) finishAt(prob *schedule.Problem, lat []float64, i int) float64 {
	if m.done[i] {
		return m.finish[i]
	}
	m.done[i] = true // safe: Validate rejects cycles at sim time; self-deps at problem time
	startAt := 0.0
	for _, d := range prob.Items[i].After {
		if f := m.finishAt(prob, lat, d); f > startAt {
			startAt = f
		}
	}
	m.finish[i] = startAt + lat[i]
	return m.finish[i]
}
