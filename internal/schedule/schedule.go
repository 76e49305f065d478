// Package schedule defines the scheduling problem of HaX-CoNN (Sec. 3.4):
// concurrent DNNs, their layer-group characterization tables, candidate
// schedules (layer-group-to-accelerator mappings, Eq. 1), and the cost
// evaluation that integrates execution time, transition overheads (Eqs. 2-3)
// and contention slowdowns over contention intervals (Eqs. 4-8) under the
// two objectives of Eq. 10 (throughput) and Eq. 11 (latency).
//
// Evaluation reuses the discrete-event engine of internal/sim: with a
// ModelArbiter it is the analytic predictor the solver optimizes; with
// GroundTruth it is the measurement.
package schedule

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"haxconn/internal/nn"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
)

// Objective selects the optimization goal.
type Objective int

// Objectives (Eqs. 10 and 11 in the paper).
const (
	// MinMaxLatency minimizes the end-to-end makespan of the concurrent
	// execution (min max T_n, Eq. 11).
	MinMaxLatency Objective = iota
	// MaxThroughput maximizes total frames per second (Eq. 10).
	MaxThroughput
)

// String returns the objective name.
func (o Objective) String() string {
	if o == MaxThroughput {
		return "MaxFPS"
	}
	return "MinLatency"
}

// Item is one DNN in the concurrent workload. After lists indices of items
// that must complete before this one starts (pipelines, Scenario 3/4).
// Iterations > 1 replicates the inference to balance co-runner durations
// (Sec. 5.4) or to process multiple frames (Scenario 1).
type Item struct {
	Net        *nn.Network
	After      []int
	Iterations int
}

func (it Item) iterations() int {
	if it.Iterations < 1 {
		return 1
	}
	return it.Iterations
}

// Problem is a complete scheduling problem statement.
type Problem struct {
	Platform  *soc.Platform
	Items     []Item
	Objective Objective
	// FrameCount overrides the frame count used for FPS. The default (0)
	// counts every item iteration as a frame (concurrent independent
	// inferences, Scenario 1/2). Streaming pipelines (Scenario 3) complete
	// one pipeline output per steady-state window, so they set 1.
	FrameCount int
}

// Frames returns the frame count used for throughput: FrameCount if set,
// otherwise the total inference count across items.
func (p *Problem) Frames() int {
	if p.FrameCount > 0 {
		return p.FrameCount
	}
	n := 0
	for _, it := range p.Items {
		n += it.iterations()
	}
	return n
}

// Validate checks the problem statement.
func (p *Problem) Validate() error {
	if p.Platform == nil {
		return fmt.Errorf("schedule: nil platform")
	}
	if len(p.Items) == 0 {
		return fmt.Errorf("schedule: no items")
	}
	for i, it := range p.Items {
		if it.Net == nil {
			return fmt.Errorf("schedule: item %d has nil network", i)
		}
		for _, d := range it.After {
			if d < 0 || d >= len(p.Items) || d == i {
				return fmt.Errorf("schedule: item %d has invalid dependency %d", i, d)
			}
		}
	}
	return nil
}

// GroupExec is the standalone characterization of one layer group on one
// accelerator: the t(L,a) and memory-demand entries of Table 2.
type GroupExec struct {
	LatencyMs    float64
	DemandGBps   float64
	MemIntensity float64
}

// Profile is the characterization table for a problem: everything the
// solver may consult (the paper's offline profiling output). Indexing is
// [item][group] and, innermost, [accelerator index in Platform.Accels].
type Profile struct {
	Platform *soc.Platform
	Groups   [][]nn.Group
	Exec     [][][]GroupExec
	// TransOutMs[i][g][a]: flushing group g's output out of accelerator a
	// (tau OUT). TransInMs[i][g][a]: reformatting group g's input into
	// accelerator a (tau IN); zero for g = 0.
	TransOutMs [][][]float64
	TransInMs  [][][]float64
	// OutBytes[i][g]: the tensor crossing the boundary after group g.
	OutBytes [][]int64
	// Allowed lists accelerator indices usable for DNN layers (the CPU
	// complex is excluded on every evaluated platform).
	Allowed []int
}

// NumGroups returns the group count of item i.
func (pr *Profile) NumGroups(i int) int { return len(pr.Groups[i]) }

// Schedule is a complete mapping S(L) -> A (Eq. 1): Assign[i][g] is the
// accelerator index executing group g of item i.
type Schedule struct {
	Assign [][]int
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{Assign: make([][]int, len(s.Assign))}
	for i, row := range s.Assign {
		c.Assign[i] = append([]int(nil), row...)
	}
	return c
}

// Key returns a compact fingerprint of the assignment, usable as a map
// key for memoizing per-schedule work (frame latencies, evaluations).
func (s *Schedule) Key() string {
	var buf [64]byte
	return string(s.AppendKey(buf[:0]))
}

// AppendKey appends the assignment's fingerprint (the bytes of Key) to b
// and returns the extended buffer. A memo lookup through a caller's stack
// buffer, m[string(s.AppendKey(buf[:0]))], allocates nothing.
func (s *Schedule) AppendKey(b []byte) []byte {
	for _, row := range s.Assign {
		for _, a := range row {
			b = append(b, byte('0'+a))
		}
		b = append(b, '|')
	}
	return b
}

// Transitions returns the number of inter-accelerator transitions in item i
// (the TR count of Eq. 3).
func (s *Schedule) Transitions(i int) int { return transitions(s.Assign[i]) }

// transitions counts a row's accelerator switches.
func transitions(row []int) int {
	n := 0
	for g := 1; g < len(row); g++ {
		if row[g] != row[g-1] {
			n++
		}
	}
	return n
}

// Uniform builds a schedule mapping every group of every item to the given
// accelerator index.
func Uniform(pr *Profile, accel int) *Schedule {
	s := &Schedule{Assign: make([][]int, len(pr.Groups))}
	for i := range pr.Groups {
		s.Assign[i] = make([]int, len(pr.Groups[i]))
		for g := range s.Assign[i] {
			s.Assign[i][g] = accel
		}
	}
	return s
}

// Validate checks schedule shape and accelerator legality.
func (s *Schedule) Validate(pr *Profile) error {
	return s.validate(pr, allowedTable(pr))
}

// allowedTable marks, by accelerator index, the profile's allowed
// accelerators.
func allowedTable(pr *Profile) []bool {
	var t []bool
	for _, a := range pr.Allowed {
		if a < 0 {
			continue
		}
		if a >= len(t) {
			t = append(t, make([]bool, a+1-len(t))...)
		}
		t[a] = true
	}
	return t
}

// validate is Validate against a precomputed allowedTable.
func (s *Schedule) validate(pr *Profile, allowed []bool) error {
	if len(s.Assign) != len(pr.Groups) {
		return fmt.Errorf("schedule: %d assignment rows for %d items", len(s.Assign), len(pr.Groups))
	}
	for i, row := range s.Assign {
		if len(row) != len(pr.Groups[i]) {
			return fmt.Errorf("schedule: item %d has %d assignments for %d groups", i, len(row), len(pr.Groups[i]))
		}
		for g, a := range row {
			if a < 0 || a >= len(allowed) || !allowed[a] {
				return fmt.Errorf("schedule: item %d group %d mapped to disallowed accelerator %d", i, g, a)
			}
		}
	}
	return nil
}

// Describe renders the schedule compactly, e.g.
// "VGG19: GPU[0-28] DLA[29-42]; ResNet101: DLA[0-95] GPU[96-343]". The
// text is built in one stack buffer, so a description that fits it costs
// one allocation, the returned string.
func (s *Schedule) Describe(pr *Profile) string {
	var buf [256]byte
	b := buf[:0]
	for i, row := range s.Assign {
		if i > 0 {
			b = append(b, "; "...)
		}
		groups := pr.Groups[i]
		b = append(b, groups[0].Net.Name...)
		b = append(b, ':')
		start := 0
		for g := 1; g <= len(row); g++ {
			if g == len(row) || row[g] != row[start] {
				b = append(b, ' ')
				b = append(b, pr.Platform.Accels[row[start]].Name...)
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(groups[start].Start), 10)
				b = append(b, '-')
				b = strconv.AppendInt(b, int64(groups[g-1].End), 10)
				b = append(b, ']')
				start = g
			}
		}
	}
	return string(b)
}

// BuildSim lowers a schedule into a simulator workload: one stream per
// item, exec tasks per group and iteration, and OUT/IN transition tasks at
// every accelerator switch (Eq. 2's tau terms). Each stream's Labels name
// its tasks, e.g. "VGG19/it0/g3" or "VGG19/it0/out3".
func BuildSim(prob *Problem, pr *Profile, s *Schedule) sim.Workload {
	w := sim.Workload{Streams: make([]sim.Stream, len(prob.Items))}
	for i, it := range prob.Items {
		st := &w.Streams[i]
		st.Name = it.Net.Name
		st.After = append([]int(nil), it.After...)
		lowerItem(prob, pr, i, s.Assign[i], st)
		st.Labels = make([]string, 0, len(st.Tasks))
		row := s.Assign[i]
		for iter := 0; iter < it.iterations(); iter++ {
			for g := range row {
				if g > 0 && row[g-1] != row[g] {
					st.Labels = append(st.Labels, taskLabel(st.Name, iter, "out", g), taskLabel(st.Name, iter, "in", g))
				}
				st.Labels = append(st.Labels, taskLabel(st.Name, iter, "g", g))
			}
		}
	}
	return w
}

// lowerItem writes item i's tasks under its assignment row into st.Tasks,
// reusing the slice: one iteration's tasks, then copies of them for the
// other iterations. A new slice has room for one more transition per
// iteration, so an Evaluator's next row rarely needs a larger one.
func lowerItem(prob *Problem, pr *Profile, i int, row []int, st *sim.Stream) {
	per := len(row) + 2*transitions(row)
	iters := prob.Items[i].iterations()
	tasks := st.Tasks[:0]
	if cap(tasks) < iters*per {
		tasks = make([]sim.Task, 0, iters*(per+2))
	}
	for g, a := range row {
		if g > 0 && row[g-1] != a {
			prev := row[g-1]
			outMs := pr.TransOutMs[i][g-1][prev]
			inMs := pr.TransInMs[i][g][a]
			bytes := float64(pr.OutBytes[i][g-1])
			tasks = append(tasks, transTask(prev, outMs, bytes), transTask(a, inMs, bytes))
		}
		e := pr.Exec[i][g][a]
		tasks = append(tasks, sim.Task{
			Accel:        a,
			BaseMs:       e.LatencyMs,
			DemandGBps:   e.DemandGBps,
			MemIntensity: e.MemIntensity,
		})
	}
	for iter := 1; iter < iters; iter++ {
		tasks = append(tasks, tasks[:per]...)
	}
	st.Tasks = tasks
}

// taskLabel names a lowered task, e.g. "VGG19/it0/g3" or "VGG19/it0/out3".
func taskLabel(net string, iter int, kind string, g int) string {
	return fmt.Sprintf("%s/it%d/%s%d", net, iter, kind, g)
}

func transTask(accel int, ms, bytes float64) sim.Task {
	demand := 0.0
	if ms > 0 {
		demand = bytes / (ms * 1e6)
	}
	return sim.Task{Accel: accel, BaseMs: ms, DemandGBps: demand, MemIntensity: 1}
}

// Eval is the outcome of evaluating a schedule.
type Eval struct {
	// MakespanMs is the end-to-end duration of the whole concurrent run.
	MakespanMs float64
	// ItemLatencyMs is the per-item start-to-finish latency.
	ItemLatencyMs []float64
	// StreamEndMs is each item's finish time from the start of the run.
	StreamEndMs []float64
	// FPS is total frames over the makespan.
	FPS float64
	// Cost is the objective value to minimize.
	Cost float64
	// Result is the underlying simulation with its timeline — per-task
	// records and contention intervals — for QueueingMs, traces and
	// figures. Only the package function Evaluate records one;
	// Evaluator.Evaluate leaves Result nil.
	Result *sim.Result
}

// Evaluate runs the schedule under the given arbiter (analytic model or
// ground truth) and computes the objective cost. It is the one evaluation
// that records a timeline (Eval.Result): tasks are labelled and every
// task record and contention interval is kept. Callers that read only the
// figures use an Evaluator, which returns them bit for bit.
func Evaluate(prob *Problem, pr *Profile, s *Schedule, arb sim.Arbiter) (*Eval, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(pr); err != nil {
		return nil, err
	}
	w := BuildSim(prob, pr, s)
	res, err := sim.Run(prob.Platform, w, arb)
	if err != nil {
		return nil, err
	}
	ev := newEval(prob, res)
	ev.Result = res
	return ev, nil
}

// newEval derives an Eval's figures from a simulation; the result's
// slices are copied, so it may belong to a reused engine.
func newEval(prob *Problem, res *sim.Result) *Eval {
	n := len(prob.Items)
	buf := make([]float64, 2*n)
	ev := &Eval{
		MakespanMs:    res.MakespanMs,
		ItemLatencyMs: buf[:n:n],
		StreamEndMs:   buf[n:],
		FPS:           res.FPS(prob.Frames()),
		Cost:          prob.cost(res),
	}
	for i := range n {
		ev.ItemLatencyMs[i] = res.StreamLatencyMs(i)
	}
	copy(ev.StreamEndMs, res.StreamEndMs)
	return ev
}

// cost is the objective value to minimize for a simulated run: the
// makespan (Eq. 11), or the negated FPS under MaxThroughput (Eq. 10).
func (p *Problem) cost(res *sim.Result) float64 {
	if p.Objective == MaxThroughput {
		return -res.FPS(p.Frames())
	}
	return res.MakespanMs
}

// Evaluator evaluates schedules for one problem without recording a
// timeline: the inner loop of the solver (Cost) and the ground-truth
// measurement of plans and served mixes (Evaluate). It runs every check
// Evaluate runs, but schedules are lowered into reused, unlabelled
// simulator tasks and simulated on a reused sim.Engine that keeps no task
// records or contention intervals, so a warmed Evaluator's Cost allocates
// nothing.
//
// It remembers the assignment row each item's stream was lowered from,
// and re-lowers an item — and re-runs the simulator's per-task checks on
// it (sim.CheckTasks) and, before a limited run, its suffix sums
// (sim.Stream.SumRest) — only when its row changes.
// Consecutive branch & bound leaves differ in the deepest item only. This
// assumes the problem and profile do not change after NewEvaluator, which
// also reads the profile's allowed accelerators once. An Evaluator must
// not be used by two goroutines at once; give each its own. Release hands
// its task arrays and engine buffers to a later NewEvaluator.
type Evaluator struct {
	prob    *Problem
	pr      *Profile
	arb     sim.Arbiter
	allowed []bool
	// rows holds, item after item, the row each stream of w was lowered
	// from; -1 marks a stream that must be lowered.
	rows []int
	w    sim.Workload
	eng  sim.Engine
}

// evaluators holds released Evaluators, whose buffers NewEvaluator reuses.
var evaluators = sync.Pool{New: func() any { return new(Evaluator) }}

// NewEvaluator returns an Evaluator for the problem and profile under the
// given arbiter, on the buffers of a released one when the pool has one.
func NewEvaluator(prob *Problem, pr *Profile, arb sim.Arbiter) *Evaluator {
	e := evaluators.Get().(*Evaluator)
	e.prob, e.pr, e.arb, e.allowed = prob, pr, arb, allowedTable(pr)
	e.w.Streams = e.w.Streams[:0]
	return e
}

// Release hands e's buffers to a later NewEvaluator; e must not be used
// again. What e returned stays valid: Cost's figures and Evaluate's Eval
// are copies.
func (e *Evaluator) Release() {
	e.prob, e.pr, e.arb = nil, nil, nil
	evaluators.Put(e)
}

// Cost returns the objective cost and the makespan of s, each equal to
// Evaluate(prob, pr, s, arb)'s bit for bit, and fails wherever Evaluate
// fails. If the makespan provably reaches limitMs first, the simulation
// stops there and Cost reports cut, with zero cost and makespan: s's
// makespan is at least limitMs (sim.Engine.RunLimited). math.Inf(1) runs
// every simulation to the end.
func (e *Evaluator) Cost(s *Schedule, limitMs float64) (cost, makespanMs float64, cut bool, err error) {
	res, cut, err := e.run(s, limitMs)
	if err != nil || cut {
		return 0, 0, cut, err
	}
	return e.prob.cost(res), res.MakespanMs, false, nil
}

// Evaluate returns Evaluate(prob, pr, s, arb) without its timeline: the
// makespan, per-item latencies, stream ends, FPS and cost equal Evaluate's
// bit for bit, Result is nil, and it fails wherever Evaluate fails.
func (e *Evaluator) Evaluate(s *Schedule) (*Eval, error) {
	res, _, err := e.run(s, math.Inf(1))
	if err != nil {
		return nil, err
	}
	return newEval(e.prob, res), nil
}

// run checks s, lowers the items whose rows changed and simulates it
// untimed under the limit; the result belongs to the engine.
func (e *Evaluator) run(s *Schedule, limitMs float64) (*sim.Result, bool, error) {
	if err := e.prob.Validate(); err != nil {
		return nil, false, err
	}
	if err := s.validate(e.pr, e.allowed); err != nil {
		return nil, false, err
	}
	if len(e.w.Streams) == 0 {
		e.init()
	}
	off := 0
	for i, row := range s.Assign {
		lowered := e.rows[off : off+len(row)]
		off += len(row)
		if slices.Equal(lowered, row) {
			continue
		}
		st := &e.w.Streams[i]
		lowerItem(e.prob, e.pr, i, row, st)
		if err := sim.CheckTasks(e.prob.Platform, i, st.Tasks); err != nil {
			lowered[0] = -1
			return nil, false, err
		}
		st.RestMs = st.RestMs[:0]
		copy(lowered, row)
	}
	if limitMs < math.Inf(1) {
		for i := range e.w.Streams {
			if st := &e.w.Streams[i]; len(st.RestMs) != len(st.Tasks) {
				st.SumRest()
			}
		}
	}
	return e.eng.RunLimited(e.prob.Platform, e.w, e.arb, limitMs)
}

// init sizes the workload and the row record for the problem, reusing
// their arrays and the streams' task arrays: one stream per item, none
// lowered yet.
func (e *Evaluator) init() {
	e.w.Streams = slices.Grow(e.w.Streams[:0], len(e.prob.Items))[:len(e.prob.Items)]
	n := 0
	for i, it := range e.prob.Items {
		e.w.Streams[i].Name = it.Net.Name
		e.w.Streams[i].After = it.After
		n += len(e.pr.Groups[i])
	}
	e.rows = slices.Grow(e.rows[:0], n)[:n]
	for i := range e.rows {
		e.rows[i] = -1
	}
}

// BaseLatencyMs returns the contention-free latency of item i under the
// schedule: standalone group times plus transition costs. It feeds the
// first of branch & bound's two admissible bounds (see package solver):
// the critical path of these latencies through the item dependencies,
// which grows with a candidate's base latency, so candidates are tried in
// its order and the first one it prunes ends the loop under the latency
// objective. The second bound, the busiest accelerator's contention-free
// load, has no such order and prunes one candidate at a time.
func BaseLatencyMs(pr *Profile, s *Schedule, i int, iterations int) float64 {
	if iterations < 1 {
		iterations = 1
	}
	row := s.Assign[i]
	var one float64
	for g := range pr.Groups[i] {
		a := row[g]
		one += pr.Exec[i][g][a].LatencyMs
		if g > 0 && row[g-1] != a {
			one += pr.TransOutMs[i][g-1][row[g-1]] + pr.TransInMs[i][g][a]
		}
	}
	return one * float64(iterations)
}

// MinBaseLatencyMs returns the minimum contention-free latency of item i
// over all single-accelerator schedules — a lower bound independent of the
// assignment (mixed schedules add transition costs; a relaxed bound uses
// the per-group minimum without transitions).
func MinBaseLatencyMs(pr *Profile, i int, iterations int) float64 {
	if iterations < 1 {
		iterations = 1
	}
	var one float64
	for g := range pr.Groups[i] {
		best := math.Inf(1)
		for _, a := range pr.Allowed {
			if t := pr.Exec[i][g][a].LatencyMs; t < best {
				best = t
			}
		}
		one += best
	}
	return one * float64(iterations)
}

// Percentile returns the p-quantile of sorted data (nearest-rank). It is
// the latency-percentile helper shared by the runtime packages
// (internal/serve, internal/control).
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// QueueingMs quantifies the Eq. 9 constraint residual: the total time
// tasks spent waiting for their assigned accelerator because another
// item's layers occupied it. The paper forbids same-accelerator overlap
// beyond an epsilon slack in its constraint system; in this evaluator the
// overlap serializes instead, and this function reports how much
// serialization a schedule induced — zero for a perfectly interleaved
// schedule, large for the over-subscribed DSAs Herald/H2H produce. It
// reads the timeline, so ev must come from Evaluate.
func QueueingMs(ev *Eval) float64 {
	if ev == nil || ev.Result == nil {
		return 0
	}
	// A task's wait is the gap between when it became ready (its
	// predecessor in the stream ended) and when it started.
	type key struct{ stream, index int }
	ends := make(map[key]float64, len(ev.Result.Records))
	for _, r := range ev.Result.Records {
		ends[key{r.Stream, r.Index}] = r.EndMs
	}
	var wait float64
	for _, r := range ev.Result.Records {
		if r.Index == 0 {
			continue
		}
		ready, ok := ends[key{r.Stream, r.Index - 1}]
		if !ok {
			continue
		}
		if gap := r.StartMs - ready; gap > 0 {
			wait += gap
		}
	}
	return wait
}

// SatisfiesEpsilon reports whether the schedule's induced queueing stays
// within the epsilon slack of Eq. 9 (per task, on average). Like
// QueueingMs it reads the timeline of an Evaluate result.
func SatisfiesEpsilon(ev *Eval, epsilonMs float64) bool {
	n := len(ev.Result.Records)
	if n == 0 {
		return true
	}
	return QueueingMs(ev)/float64(n) <= epsilonMs
}
