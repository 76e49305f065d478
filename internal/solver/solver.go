// Package solver generates optimal schedules for the HaX-CoNN problem
// (Sec. 3.5 of the paper). OptimizeBB is the one engine: a complete
// branch & bound over per-network assignment candidates. It is anytime —
// improvements are reported as found — and powers D-HaX-CoNN through
// RunAnytime. A prefix of decided networks is pruned when either of two
// admissible contention-free bounds already reaches the incumbent's cost,
// since contention and queueing only add time:
//
//  1. the critical path of per-network base latencies through the
//     dependencies (schedule.BaseLatencyMs; undecided networks at their
//     best candidate). Candidates are tried in base-latency order, so
//     under the latency objective the first candidate this bound prunes
//     ends the loop (break);
//
//  2. the busiest accelerator's load: the decided networks' standalone
//     task times on it, transitions included, times iterations — each
//     accelerator runs one task at a time. It is not monotone in
//     candidate order, so it prunes one candidate at a time (continue),
//     and it is lowered by a margin for the simulator's completion
//     tolerance (sim.TimeEps per task) and summation rounding.
//
// Every leaf under a pruned prefix costs at least the incumbent, so the
// incumbent stream is the one an unpruned search would report; only the
// node counts at which incumbents appear shrink. A completed search
// proves its incumbent optimal over the candidate space, as the paper's
// Z3 formulation does.
//
// A leaf that survives both bounds is simulated, but only until it cannot
// win: the incumbent's makespan is the simulation's limit, and the run
// stops once some network's elapsed time plus its remaining standalone
// work, margined like bound 2, reaches it (sim.Engine.RunLimited). A cut
// leaf's makespan is at least the incumbent's, so its cost is too — under
// MaxThroughput as well, since FPS falls as the makespan grows — and the
// search moves exactly as it would have after simulating it to the end.
// A cut leaf still counts as an evaluation (Stats.Evals), and Stats.Cut
// counts it again.
//
// The engine optimizes the *predicted* cost: the analytic evaluator under
// a contention model. Measured results always come from re-running the
// chosen schedule on the ground-truth simulator.
package solver

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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
	// TimeBudget stops the search after this much wall time, the solver's
	// only wall-clock read; zero means run to completion on the node
	// counter alone.
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
	// Nodes is the search work done when the incumbent was found: B&B
	// nodes expanded. It is deterministic for a given problem, so
	// virtual-time replays of the incumbent stream (Fig. 7 and
	// internal/serve's schedule cache) are reproducible run to run.
	Nodes int
}

// Stats summarizes a search.
type Stats struct {
	Nodes    int  // search nodes expanded
	Evals    int  // schedule evaluations, cut ones included
	Cut      int  // evaluations stopped at the incumbent's makespan
	Pruned   int  // subtrees cut by either lower bound
	Complete bool // false if the time budget expired first
}

// Candidates enumerates all per-item assignment vectors with at most
// maxTransitions accelerator switches, over the profile's allowed
// accelerators. The vectors share one backing array, each capped at its
// own length.
func Candidates(pr *schedule.Profile, item, maxTransitions int) [][]int {
	e := candEnum{allowed: pr.Allowed, cur: make([]int, pr.NumGroups(item)), maxTransitions: maxTransitions}
	e.rec(0, 0) // count
	e.flat, e.out = make([]int, e.n*len(e.cur)), make([][]int, 0, e.n)
	e.n = 0
	e.rec(0, 0)
	return e.out
}

// candShape is one memoized shape of candidate rows: Candidates reads only
// the item's group count, the allowed accelerators and the transition cap.
type candShape struct {
	allowed []int
	rows    [][]int
}

// candMemo is the process-wide memo of candidate rows, keyed by group
// count and transition cap, then matched on the allowed accelerators. Its
// rows are shared by every solve of that shape and never written: branch
// & bound sorts only its own copy of the row headers.
var candMemo struct {
	sync.Mutex
	shapes map[[2]int][]candShape
}

// sharedCandidates returns Candidates' rows from the memo, enumerating
// them on first sight of the shape. Callers must not write to the rows or
// reorder the returned slice.
func sharedCandidates(pr *schedule.Profile, item, maxTransitions int) [][]int {
	k := [2]int{pr.NumGroups(item), maxTransitions}
	candMemo.Lock()
	defer candMemo.Unlock()
	for _, sh := range candMemo.shapes[k] {
		if slices.Equal(sh.allowed, pr.Allowed) {
			return sh.rows
		}
	}
	rows := Candidates(pr, item, maxTransitions)
	if candMemo.shapes == nil {
		candMemo.shapes = map[[2]int][]candShape{}
	}
	candMemo.shapes[k] = append(candMemo.shapes[k], candShape{allowed: slices.Clone(pr.Allowed), rows: rows})
	return rows
}

// candEnum is Candidates' depth-first enumeration: a counting pass while
// flat is nil, then a pass that copies each vector into flat.
type candEnum struct {
	allowed        []int
	cur            []int
	maxTransitions int
	n              int
	flat           []int
	out            [][]int
}

func (e *candEnum) rec(g, trans int) {
	if g == len(e.cur) {
		if e.flat != nil {
			k := len(e.cur)
			row := e.flat[e.n*k : (e.n+1)*k : (e.n+1)*k]
			copy(row, e.cur)
			e.out = append(e.out, row)
		}
		e.n++
		return
	}
	for _, a := range e.allowed {
		t := trans
		if g > 0 && e.cur[g-1] != a {
			t++
			if t > e.maxTransitions {
				continue
			}
		}
		e.cur[g] = a
		e.rec(g+1, t)
	}
}

// OptimizeBB finds the minimum-cost schedule by branch & bound. It returns
// the best schedule, its predicted cost, and search statistics.
func OptimizeBB(prob *schedule.Problem, pr *schedule.Profile, cfg Config) (*schedule.Schedule, float64, Stats, error) {
	var deadline time.Time
	if cfg.TimeBudget > 0 {
		deadline = time.Now().Add(cfg.TimeBudget) //detlint:allow walltime anchor for the CPU-spend deadline, read only under a TimeBudget
	}
	if cfg.Model == nil {
		return nil, 0, Stats{}, fmt.Errorf("solver: nil contention model")
	}
	if err := prob.Validate(); err != nil {
		return nil, 0, Stats{}, err
	}
	ev := schedule.NewEvaluator(prob, pr, sim.ModelArbiter{Model: cfg.Model})
	defer ev.Release()
	nItems := len(prob.Items)

	// Per-item candidates, sorted by contention-free latency so good
	// incumbents appear early. The rows come from the process-wide memo;
	// the sort reorders this solve's own copy of their headers.
	cands := make([][][]int, nItems)
	base := make([][]float64, nItems)
	tmp := &schedule.Schedule{Assign: make([][]int, nItems)}
	for i := 0; i < nItems; i++ {
		cands[i] = slices.Clone(sharedCandidates(pr, i, cfg.maxTransitions()))
		base[i] = make([]float64, len(cands[i]))
		for c, assign := range cands[i] {
			tmp.Assign[i] = assign
			base[i][c] = schedule.BaseLatencyMs(pr, tmp, i, prob.Items[i].Iterations)
		}
		sort.Sort(byBase{cands[i], base[i]})
	}
	minBase := make([]float64, nItems)
	for i := range minBase {
		minBase[i] = base[i][0]
	}
	loads := newLoadTable(prob, pr, cands)

	var (
		best     *schedule.Schedule
		bestCost = math.Inf(1)
		// limit is the incumbent's makespan, the point past which no
		// simulation can yield a better cost.
		limit = math.Inf(1)
		st    Stats
	)
	// evaluate clones s when it becomes the incumbent, so callers may
	// reuse s afterwards.
	evaluate := func(s *schedule.Schedule) error {
		st.Evals++
		cost, makespan, cut, err := ev.Cost(s, limit)
		if err != nil {
			return err
		}
		if cut {
			st.Cut++
			return nil
		}
		if cost < bestCost {
			bestCost = cost
			// A zero makespan scores 0 FPS, which any longer run beats
			// under MaxThroughput, so it sets no limit.
			if makespan > 0 {
				limit = makespan
			}
			// OnImprove's callers keep every incumbent, so each gets its
			// own copy; without one, the first copy is overwritten.
			if best == nil || cfg.OnImprove != nil {
				best = s.Clone()
			} else {
				for i, row := range s.Assign {
					copy(best.Assign[i], row)
				}
			}
			if cfg.OnImprove != nil {
				cfg.OnImprove(Incumbent{Schedule: best, Cost: bestCost, Nodes: st.Nodes})
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
			// The load bound is not monotone in candidate order: a later
			// candidate may spread its load better, so only this one goes.
			if costLB(loads.push(depth, c)) >= bestCost {
				st.Pruned++
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
	if best == nil {
		return nil, 0, st, fmt.Errorf("solver: search produced no schedule")
	}
	return best, bestCost, st, nil
}

// byBase sorts one item's candidates by base latency in place. sort.Sort
// runs sort.Slice's algorithm with the same comparisons, so candidates of
// equal latency end in the order sort.Slice gives an index permutation,
// and with it which of two equal-cost schedules the search meets first.
type byBase struct {
	cands [][]int
	base  []float64
}

func (b byBase) Len() int           { return len(b.base) }
func (b byBase) Less(i, j int) bool { return b.base[i] < b.base[j] }
func (b byBase) Swap(i, j int) {
	b.cands[i], b.cands[j] = b.cands[j], b.cands[i]
	b.base[i], b.base[j] = b.base[j], b.base[i]
}

// loadTable holds, in one flat slab per solve, every candidate's
// contention-free load per accelerator and the running loads of the
// decided prefix, for branch & bound's second bound.
type loadTable struct {
	stride int // accelerators, plus one slot for the lowered task count
	// first[i] is item i's first candidate row in slab.
	first []int
	// slab holds one row of stride values per candidate, in every item's
	// candidate order: its standalone task time on each accelerator,
	// times iterations, then its lowered task count. Then come
	// len(first)+1 prefix rows: row d sums items 0..d-1's chosen rows.
	slab   []float64
	prefix int // offset of prefix row 0 in slab
}

// newLoadTable builds the load rows of every item's candidates, in the
// order of cands.
func newLoadTable(prob *schedule.Problem, pr *schedule.Profile, cands [][][]int) *loadTable {
	stride := len(prob.Platform.Accels) + 1
	t := &loadTable{stride: stride, first: make([]int, len(cands))}
	rows := 0
	for i := range cands {
		t.first[i] = rows
		rows += len(cands[i])
	}
	t.prefix = rows * stride
	t.slab = make([]float64, t.prefix+(len(cands)+1)*stride)
	for i, cs := range cands {
		iters := float64(max(prob.Items[i].Iterations, 1))
		for c, row := range cs {
			r := t.slab[(t.first[i]+c)*stride : (t.first[i]+c+1)*stride]
			tasks := candidateLoad(pr, i, row, r[:stride-1])
			for a := range r[:stride-1] {
				r[a] *= iters
			}
			r[stride-1] = float64(tasks) * iters
		}
	}
	return t
}

// candidateLoad adds item i's per-iteration standalone task times under
// row into load, by accelerator — each group's execution on its
// accelerator, and at every switch the OUT transition on the previous
// accelerator and the IN transition on the next, as schedule.BuildSim
// lowers them — and returns the number of tasks.
func candidateLoad(pr *schedule.Profile, i int, row []int, load []float64) int {
	tasks := 0
	for g, a := range row {
		if g > 0 && row[g-1] != a {
			load[row[g-1]] += pr.TransOutMs[i][g-1][row[g-1]]
			load[a] += pr.TransInMs[i][g][a]
			tasks += 2
		}
		load[a] += pr.Exec[i][g][a].LatencyMs
		tasks++
	}
	return tasks
}

// push decides item depth's candidate c on top of the prefix of items
// 0..depth-1: it writes prefix row depth+1 and returns that prefix's load
// bound, the busiest accelerator's load less the margin.
func (t *loadTable) push(depth, c int) float64 {
	n := t.stride
	from := t.slab[t.prefix+depth*n : t.prefix+(depth+1)*n]
	to := t.slab[t.prefix+(depth+1)*n : t.prefix+(depth+2)*n]
	row := t.slab[(t.first[depth]+c)*n : (t.first[depth]+c+1)*n]
	busiest := 0.0
	for a := range to {
		to[a] = from[a] + row[a]
		if a < n-1 && to[a] > busiest {
			busiest = to[a]
		}
	}
	return loadMargin(busiest, to[n-1])
}

// loadMargin returns the busiest accelerator's load less what the
// simulator may take back from it: each of the prefix's tasks may complete
// up to sim.TimeEps early, and the simulated clock sums the same times in
// another order, each addition rounding by up to half an ulp, which a
// relative 1e-9 covers many times over.
func loadMargin(busiest, tasks float64) float64 {
	return busiest - tasks*sim.TimeEps - busiest*1e-9
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
