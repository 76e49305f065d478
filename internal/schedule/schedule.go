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
	"strings"

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
func (s *Schedule) Transitions(i int) int {
	n := 0
	row := s.Assign[i]
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
// "VGG19: GPU[0-28] DLA[29-42]; ResNet101: DLA[0-95] GPU[96-343]".
func (s *Schedule) Describe(pr *Profile) string {
	var b strings.Builder
	for i, row := range s.Assign {
		if i > 0 {
			b.WriteString("; ")
		}
		groups := pr.Groups[i]
		b.WriteString(groups[0].Net.Name)
		b.WriteString(":")
		start := 0
		for g := 1; g <= len(row); g++ {
			if g == len(row) || row[g] != row[start] {
				fmt.Fprintf(&b, " %s[%d-%d]",
					pr.Platform.Accels[row[start]].Name,
					groups[start].Start, groups[g-1].End)
				start = g
			}
		}
	}
	return b.String()
}

// BuildSim lowers a schedule into a simulator workload: one stream per
// item, exec tasks per group and iteration, and OUT/IN transition tasks at
// every accelerator switch (Eq. 2's tau terms).
func BuildSim(prob *Problem, pr *Profile, s *Schedule) sim.Workload {
	var w sim.Workload
	lower(prob, pr, s, &w, true)
	return w
}

// lower writes BuildSim's workload for s into w, reusing w's stream,
// dependency and task slices. Task labels, which only timelines read, are
// built when labels is set.
func lower(prob *Problem, pr *Profile, s *Schedule, w *sim.Workload, labels bool) {
	w.Streams = slices.Grow(w.Streams[:0], len(prob.Items))[:len(prob.Items)]
	for i, it := range prob.Items {
		st := &w.Streams[i]
		st.Name = it.Net.Name
		st.After = append(st.After[:0], it.After...)
		row := s.Assign[i]
		st.Tasks = slices.Grow(st.Tasks[:0], it.iterations()*(len(row)+2*s.Transitions(i)))
		for iter := 0; iter < it.iterations(); iter++ {
			for g := range pr.Groups[i] {
				a := row[g]
				if g > 0 && row[g-1] != a {
					prev := row[g-1]
					outMs := pr.TransOutMs[i][g-1][prev]
					inMs := pr.TransInMs[i][g][a]
					bytes := float64(pr.OutBytes[i][g-1])
					st.Tasks = append(st.Tasks,
						transTask(taskLabel(labels, it.Net.Name, iter, "out", g), prev, outMs, bytes),
						transTask(taskLabel(labels, it.Net.Name, iter, "in", g), a, inMs, bytes),
					)
				}
				e := pr.Exec[i][g][a]
				st.Tasks = append(st.Tasks, sim.Task{
					Label:        taskLabel(labels, it.Net.Name, iter, "g", g),
					Accel:        a,
					BaseMs:       e.LatencyMs,
					DemandGBps:   e.DemandGBps,
					MemIntensity: e.MemIntensity,
				})
			}
		}
	}
}

// taskLabel names a lowered task, e.g. "VGG19/it0/g3" or "VGG19/it0/out3",
// or returns "" when labels are off.
func taskLabel(labels bool, net string, iter int, kind string, g int) string {
	if !labels {
		return ""
	}
	return fmt.Sprintf("%s/it%d/%s%d", net, iter, kind, g)
}

func transTask(label string, accel int, ms, bytes float64) sim.Task {
	demand := 0.0
	if ms > 0 {
		demand = bytes / (ms * 1e6)
	}
	return sim.Task{Label: label, Accel: accel, BaseMs: ms, DemandGBps: demand, MemIntensity: 1}
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
// nothing. The profile's allowed accelerators are read once, by
// NewEvaluator. An Evaluator must not be used by two goroutines at once;
// give each its own.
type Evaluator struct {
	prob    *Problem
	pr      *Profile
	arb     sim.Arbiter
	allowed []bool
	w       sim.Workload
	eng     sim.Engine
}

// NewEvaluator returns an Evaluator for the problem and profile under the
// given arbiter.
func NewEvaluator(prob *Problem, pr *Profile, arb sim.Arbiter) *Evaluator {
	return &Evaluator{prob: prob, pr: pr, arb: arb, allowed: allowedTable(pr)}
}

// Cost returns the objective cost of s; it equals
// Evaluate(prob, pr, s, arb).Cost bit for bit, and fails wherever
// Evaluate fails.
func (e *Evaluator) Cost(s *Schedule) (float64, error) {
	res, err := e.run(s)
	if err != nil {
		return 0, err
	}
	return e.prob.cost(res), nil
}

// Evaluate returns Evaluate(prob, pr, s, arb) without its timeline: the
// makespan, per-item latencies, stream ends, FPS and cost equal Evaluate's
// bit for bit, Result is nil, and it fails wherever Evaluate fails.
func (e *Evaluator) Evaluate(s *Schedule) (*Eval, error) {
	res, err := e.run(s)
	if err != nil {
		return nil, err
	}
	return newEval(e.prob, res), nil
}

// run checks s, lowers it unlabelled and simulates it untimed; the result
// belongs to the engine.
func (e *Evaluator) run(s *Schedule) (*sim.Result, error) {
	if err := e.prob.Validate(); err != nil {
		return nil, err
	}
	if err := s.validate(e.pr, e.allowed); err != nil {
		return nil, err
	}
	lower(e.prob, e.pr, s, &e.w, false)
	return e.eng.RunUntimed(e.prob.Platform, e.w, e.arb)
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
