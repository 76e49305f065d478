// Package sim is a discrete-event simulator of concurrent DNN execution on
// a shared-memory SoC. It is the repository's substitute for running
// TensorRT/SNPE engines on silicon: schedules are "executed" against it and
// the resulting latencies are the measured numbers of every experiment.
//
// The engine advances time between events (task completions). Within each
// contention interval — the span during which the set of active tasks is
// constant, exactly the concept of Fig. 4 / Eq. 8 of the paper — every
// active task progresses at a rate set by the Arbiter from the demands of
// all concurrently active tasks. Each accelerator executes one task at a
// time; tasks of a stream run in order; streams may depend on other
// streams (pipelines, Scenario 3/4).
package sim

import (
	"fmt"
	"math"
	"slices"

	"haxconn/internal/contention"
	"haxconn/internal/soc"
)

// Task is one unit of accelerator work: a layer group's execution or an
// inter-accelerator transition. It holds no pointer, so lowering a
// schedule into tasks pays no GC write barriers; labels live in
// Stream.Labels.
type Task struct {
	Accel        int     // index into the platform's accelerator list
	BaseMs       float64 // standalone duration
	DemandGBps   float64 // memory throughput requested while running
	MemIntensity float64 // fraction of BaseMs that stretches under contention
}

// Stream is an ordered list of tasks (one DNN inference, possibly several
// iterations). After lists stream indices that must complete before the
// stream starts (inter-DNN pipelines).
type Stream struct {
	Name  string
	Tasks []Task
	// Labels, parallel to Tasks, names each task for timelines
	// (TaskRecord.Label, Interval.Active); nil leaves them unnamed.
	Labels []string
	// RestMs, parallel to Tasks, holds the summed BaseMs of each task's
	// successors in the stream. SumRest fills it; only a limited run
	// (RunLimited) reads it.
	RestMs []float64
	After  []int
}

// label returns task k's label, or "" for an unlabelled stream.
func (s *Stream) label(k int) string {
	if k < len(s.Labels) {
		return s.Labels[k]
	}
	return ""
}

// Background is a constant co-running memory demand that participates in
// arbitration but never completes — e.g. the on-line solver occupying a CPU
// core in the Table 7 experiment.
type Background struct {
	Label      string
	DemandGBps float64
}

// Workload is a complete concurrent execution to simulate.
type Workload struct {
	Streams    []Stream
	Background []Background
}

// Arbiter converts the demands and memory intensities of concurrently
// active tasks into per-task slowdowns for one contention interval.
// Slowdowns writes the slowdown of task i into out[i]; out is supplied by
// the caller, has the same length as demands, and is overwritten in full.
// Implementations must not retain any of the three slices, which the
// simulator reuses across intervals. Implementations: GroundTruth (max-min
// EMC arbitration, used for measured results) and ModelArbiter (a
// contention.Model, used by the analytic schedule evaluator).
type Arbiter interface {
	Slowdowns(demands, intensities, out []float64)
}

// GroundTruth arbitrates with max-min fair sharing of the platform's
// saturation bandwidth — the simulator's "real hardware" behaviour.
type GroundTruth struct {
	SatBW float64
}

// Slowdowns implements Arbiter. It allocates nothing: the max-min shares
// are written into out, then each is replaced by its task's slowdown.
func (g GroundTruth) Slowdowns(demands, intensities, out []float64) {
	contention.FairShareInto(demands, g.SatBW, out)
	for i := range demands {
		out[i] = contention.Slowdown(demands[i], intensities[i], out[i])
	}
}

// ModelArbiter predicts each task's slowdown with a processor-centric
// contention model fed the cumulative external demand, mirroring Eq. 7.
type ModelArbiter struct {
	Model contention.Model
}

// Slowdowns implements Arbiter.
func (m ModelArbiter) Slowdowns(demands, intensities, out []float64) {
	var total float64
	for _, d := range demands {
		total += d
	}
	for i := range demands {
		out[i] = m.Model.SlowdownFor(demands[i], intensities[i], total-demands[i])
	}
}

// TaskRecord reports one executed task.
type TaskRecord struct {
	Stream, Index  int
	Label          string
	Accel          int
	StartMs, EndMs float64
	// Slowdown is the ratio of actual duration to standalone duration.
	Slowdown float64
}

// Interval reports one contention interval: a period with a constant set of
// active tasks (Fig. 4).
type Interval struct {
	StartMs, EndMs float64
	Active         []string // task labels
	TotalDemand    float64  // GB/s requested during the interval
}

// Result is the outcome of a simulation.
type Result struct {
	MakespanMs    float64
	StreamStartMs []float64
	StreamEndMs   []float64
	Records       []TaskRecord
	Intervals     []Interval
	// BusyMs is per-accelerator busy time, for utilization reporting.
	BusyMs []float64
}

// StreamLatencyMs returns the end-to-end latency of stream i.
func (r *Result) StreamLatencyMs(i int) float64 {
	return r.StreamEndMs[i] - r.StreamStartMs[i]
}

// FPS converts the makespan into frames per second for the given number of
// frames processed.
func (r *Result) FPS(frames int) float64 {
	if r.MakespanMs <= 0 {
		return 0
	}
	return 1000 * float64(frames) / r.MakespanMs
}

// TimeEps is the completion tolerance: a task completes once its
// remaining standalone work is at most TimeEps ms. Under slowdowns of at
// least 1 — GroundTruth's, and every contention.Model's — a task therefore
// runs for at least its BaseMs less TimeEps, the slack a contention-free
// lower bound on a makespan must allow per task. It has three users:
// the engine's completion test, RunLimited's incumbent cutoff, and branch
// & bound's load bound (package solver).
const TimeEps = 1e-9

// Run simulates the workload on the platform with the given arbiter.
func Run(p *soc.Platform, w Workload, arb Arbiter) (*Result, error) {
	var e Engine
	if _, err := e.run(p, w, arb, true, false, math.Inf(1)); err != nil {
		return nil, err
	}
	res := e.res
	return &res, nil
}

// Engine runs simulations. Its working buffers — per-stream cursors,
// per-accelerator FIFOs and running tasks, per-interval arbitration
// scratch — persist across runs, so an Engine reused for many workloads
// stops allocating once its buffers have grown to fit them. The zero value
// is ready to use. An Engine must not be used by two goroutines at once.
type Engine struct {
	streams   []Stream // the workload being run
	now       float64
	completed int // streams done

	next    []int    // next task index per stream
	done    []bool   // stream completed
	running []active // task running per accelerator
	// queued[a] counts the streams waiting in accelerator a's FIFO, which
	// is waiting[a*ns:]: a stream queues at most one task at a time, so a
	// queue holds at most ns streams. Plain integers keep the hot loop
	// free of pointer writes.
	queued  []int
	waiting []int

	// Per-interval scratch: the accelerators with a running task, then the
	// arbitration inputs and outputs (running tasks first, background
	// demands after them).
	accels      []int
	demands     []float64
	intensities []float64
	slows       []float64

	// ints and floats back every per-run slice above and the result's
	// per-stream and per-accelerator figures, so a run allocates two
	// arrays for them, not one each.
	ints   []int
	floats []float64

	color []int8 // dependency-cycle search state per stream

	// res accumulates the run's outcome. Records and Intervals are
	// appended only by recording runs.
	res Result
}

// RunUntimed simulates the workload exactly like Run, without building
// the per-task records and contention intervals only timelines read: the
// result's makespan, stream starts and ends and busy times equal Run's bit
// for bit, and its Records and Intervals are empty. The result belongs to
// the engine and is overwritten by its next run.
func (e *Engine) RunUntimed(p *soc.Platform, w Workload, arb Arbiter) (*Result, error) {
	if _, err := e.run(p, w, arb, false, false, math.Inf(1)); err != nil {
		return nil, err
	}
	return &e.res, nil
}

// RunLimited is RunUntimed for a workload whose every stream's tasks
// passed CheckTasks on p and have not changed since: it skips the per-task
// checks. Under a finite limitMs it reads each stream's RestMs, which must
// be current (SumRest), and stops early, returning a nil result and cut
// true, once the makespan provably reaches limitMs: after some event, an
// unfinished stream's bound — the current time plus the stream's
// remaining standalone work, less TimeEps per remaining task and a
// relative 1e-9 for rounding — is at least limitMs. Slowdowns of at least
// 1 make the bound admissible: a cut run's makespan is at least limitMs.
// A run that is not cut equals RunUntimed's bit for bit; math.Inf(1) never
// cuts.
func (e *Engine) RunLimited(p *soc.Platform, w Workload, arb Arbiter, limitMs float64) (*Result, bool, error) {
	cut, err := e.run(p, w, arb, false, true, limitMs)
	if err != nil || cut {
		return nil, cut, err
	}
	return &e.res, false, nil
}

// SumRest fills s.RestMs from s.Tasks, reusing its array.
func (s *Stream) SumRest() {
	s.RestMs = resize(s.RestMs, len(s.Tasks))
	rest := 0.0
	for k := len(s.Tasks) - 1; k >= 0; k-- {
		s.RestMs[k] = rest
		rest += s.Tasks[k].BaseMs
	}
}

// active is the task running on an accelerator; remaining is measured in
// standalone-ms units. The zero value is an idle accelerator.
type active struct {
	busy          bool
	stream, index int
	remaining     float64
	startMs       float64
}

// resize returns s with n elements, reusing its backing array — and the
// buffers held by elements beyond its length — when it is large enough.
// Elements keep their previous contents; callers reset them.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// reset prepares the engine's buffers for a run of w on p.
func (e *Engine) reset(p *soc.Platform, w Workload) {
	ns, na, nd := len(w.Streams), len(p.Accels), len(p.Accels)+len(w.Background)
	e.streams, e.now, e.completed = w.Streams, 0, 0
	e.done = resize(e.done, ns)
	clear(e.done)
	e.running = resize(e.running, na)
	clear(e.running)

	// Integers: next per stream, the active accelerators, the queue
	// lengths, then the queues.
	e.ints = resize(e.ints, ns+2*na+na*ns)
	e.next, e.accels = e.ints[:ns:ns], e.ints[ns:ns:ns+na]
	e.queued, e.waiting = e.ints[ns+na:ns+2*na:ns+2*na], e.ints[ns+2*na:]
	clear(e.next)
	clear(e.queued)

	// Floats: the three arbitration vectors, then the result's stream
	// starts, stream ends and busy times.
	e.floats = resize(e.floats, 3*nd+2*ns+na)
	f := e.floats
	e.demands, e.intensities, e.slows = f[:0:nd], f[nd:nd:2*nd], f[2*nd:2*nd:3*nd]
	f = f[3*nd:]
	e.res.MakespanMs = 0
	e.res.StreamStartMs, e.res.StreamEndMs, e.res.BusyMs = f[:ns:ns], f[ns:2*ns:2*ns], f[2*ns:]
	for i := range e.res.StreamStartMs {
		e.res.StreamStartMs[i] = math.NaN()
	}
	clear(f[ns:])
	e.res.Records = e.res.Records[:0]
	e.res.Intervals = e.res.Intervals[:0]
}

// run is the simulation loop behind Run, RunUntimed and RunLimited. record
// selects whether Records and Intervals are appended; checked skips the
// per-task checks (CheckTasks). A finite limit stops the run, reporting
// true, once the makespan provably reaches it (see RunLimited).
func (e *Engine) run(p *soc.Platform, w Workload, arb Arbiter, record, checked bool, limit float64) (bool, error) {
	if err := e.validate(p, w, checked); err != nil {
		return false, err
	}
	limited := limit < math.Inf(1)
	if limited {
		for si := range w.Streams {
			if s := &w.Streams[si]; len(s.RestMs) != len(s.Tasks) {
				return false, fmt.Errorf("sim: stream %d has %d suffix sums for %d tasks (see Stream.SumRest)", si, len(s.RestMs), len(s.Tasks))
			}
		}
	}
	e.reset(p, w)
	ns := len(w.Streams)

	// Seed: streams with no unmet dependencies.
	for s := range e.streams {
		if e.ready(s) {
			if len(e.streams[s].Tasks) == 0 {
				e.done[s] = true
				e.res.StreamStartMs[s] = 0
				e.res.StreamEndMs[s] = 0
				e.completed++
				continue
			}
			e.enqueue(s)
		}
	}
	// Re-check dependents of empty streams.
	for s := range e.streams {
		if !e.done[s] && e.next[s] == 0 && e.ready(s) && !e.queuedOrRunning(s) {
			e.enqueue(s)
		}
	}
	e.dispatch()

	guard := 0
	maxEvents := totalTasks(w)*4 + 64
	for e.completed < ns {
		if limited && e.reached(limit) {
			return true, nil
		}
		guard++
		if guard > maxEvents {
			return false, fmt.Errorf("sim: no progress after %d events (dependency cycle?)", guard)
		}
		// Collect active tasks.
		e.accels, e.demands, e.intensities = e.accels[:0], e.demands[:0], e.intensities[:0]
		for a := range e.running {
			act := &e.running[a]
			if !act.busy {
				continue
			}
			task := &e.streams[act.stream].Tasks[act.index]
			e.accels = append(e.accels, a)
			e.demands = append(e.demands, task.DemandGBps)
			e.intensities = append(e.intensities, task.MemIntensity)
		}
		if len(e.accels) == 0 {
			return false, fmt.Errorf("sim: deadlock at %g ms: %d/%d streams done, none runnable", e.now, e.completed, ns)
		}
		// Background demands participate in arbitration but have no
		// completion; append them with intensity 1 and ignore their slowdown.
		for _, b := range w.Background {
			e.demands = append(e.demands, b.DemandGBps)
			e.intensities = append(e.intensities, 1)
		}
		e.slows = e.slows[:len(e.demands)]
		arb.Slowdowns(e.demands, e.intensities, e.slows)

		// Find earliest completion.
		dt := math.Inf(1)
		for k, a := range e.accels {
			speed := 1 / e.slows[k]
			t := e.running[a].remaining / speed
			if e.running[a].remaining <= 0 {
				t = 0
			}
			if t < dt {
				dt = t
			}
		}
		if dt < 0 {
			dt = 0
		}
		if math.IsInf(dt, 1) || math.IsNaN(dt) {
			return false, fmt.Errorf("sim: no task can make progress at %g ms (arbiter returned a non-finite slowdown)", e.now)
		}
		if record && dt > 0 {
			iv := Interval{StartMs: e.now, EndMs: e.now + dt}
			for k, a := range e.accels {
				act := &e.running[a]
				iv.Active = append(iv.Active, e.streams[act.stream].label(act.index))
				iv.TotalDemand += e.demands[k]
			}
			for _, b := range w.Background {
				iv.TotalDemand += b.DemandGBps
			}
			e.res.Intervals = append(e.res.Intervals, iv)
		}

		// Advance.
		e.now += dt
		for k, a := range e.accels {
			speed := 1 / e.slows[k]
			e.running[a].remaining -= dt * speed
			e.res.BusyMs[a] += dt
		}
		// Complete finished tasks.
		for _, a := range e.accels {
			act := e.running[a]
			if act.remaining > TimeEps {
				continue
			}
			if record {
				task := &e.streams[act.stream].Tasks[act.index]
				slow := 1.0
				if task.BaseMs > 0 {
					slow = (e.now - act.startMs) / task.BaseMs
				}
				e.res.Records = append(e.res.Records, TaskRecord{
					Stream: act.stream, Index: act.index, Label: e.streams[act.stream].label(act.index),
					Accel: a, StartMs: act.startMs, EndMs: e.now, Slowdown: slow,
				})
			}
			e.running[a] = active{}
			e.next[act.stream]++
			e.enqueue(act.stream)
		}
		e.dispatch()
	}
	e.res.MakespanMs = e.now
	return false, nil
}

// reached reports whether some unfinished stream's bound has reached
// limit. A stream's bound is the current time plus its remaining
// standalone work: the running task's remaining work, or a queued or
// blocked task's whole BaseMs, plus its successors' RestMs. Each of the
// stream's remaining tasks may complete up to TimeEps early, and the
// simulated clock sums the same times in another order, rounding at every
// addition, which a relative 1e-9 covers many times over.
func (e *Engine) reached(limit float64) bool {
	for s := range e.streams {
		if e.done[s] {
			continue
		}
		st := &e.streams[s]
		k := e.next[s]
		if k == len(st.Tasks) { // an empty stream, blocked on a dependency
			continue
		}
		task := &st.Tasks[k]
		work := task.BaseMs
		if act := &e.running[task.Accel]; act.busy && act.stream == s {
			work = act.remaining
		}
		end := e.now + (work + st.RestMs[k])
		if end-float64(len(st.Tasks)-k)*TimeEps-end*1e-9 >= limit {
			return true
		}
	}
	return false
}

// ready reports whether every stream s depends on has completed.
func (e *Engine) ready(s int) bool {
	for _, dep := range e.streams[s].After {
		if !e.done[dep] {
			return false
		}
	}
	return true
}

// enqueue puts stream s's next task on its accelerator queue, or marks the
// stream done.
func (e *Engine) enqueue(s int) {
	tasks := e.streams[s].Tasks
	if e.next[s] >= len(tasks) {
		e.done[s] = true
		if math.IsNaN(e.res.StreamStartMs[s]) { // an empty stream, unblocked just now
			e.res.StreamStartMs[s] = e.now
		}
		e.res.StreamEndMs[s] = e.now
		e.completed++
		// Unblock dependents that were fully waiting on us.
		for t := range e.streams {
			if !e.done[t] && e.next[t] == 0 && e.ready(t) && !e.queuedOrRunning(t) {
				e.enqueue(t)
			}
		}
		return
	}
	a := tasks[e.next[s]].Accel
	e.waiting[a*len(e.streams)+e.queued[a]] = s
	e.queued[a]++
}

// dispatch starts the head of every idle accelerator's queue.
func (e *Engine) dispatch() {
	for a := range e.running {
		if e.running[a].busy || e.queued[a] == 0 {
			continue
		}
		q := e.queue(a)
		s := q[0]
		copy(q, q[1:])
		e.queued[a]--
		task := &e.streams[s].Tasks[e.next[s]]
		if math.IsNaN(e.res.StreamStartMs[s]) {
			e.res.StreamStartMs[s] = e.now
		}
		e.running[a] = active{busy: true, stream: s, index: e.next[s], remaining: task.BaseMs, startMs: e.now}
		if task.BaseMs <= 0 {
			e.running[a].remaining = 0
		}
	}
}

func (e *Engine) queuedOrRunning(s int) bool {
	for a := range e.running {
		if e.running[a].busy && e.running[a].stream == s {
			return true
		}
	}
	for a := range e.queued {
		for _, t := range e.queue(a) {
			if t == s {
				return true
			}
		}
	}
	return false
}

// queue returns accelerator a's FIFO of queued streams.
func (e *Engine) queue(a int) []int {
	from := a * len(e.streams)
	return e.waiting[from : from+e.queued[a]]
}

func totalTasks(w Workload) int {
	n := 0
	for _, s := range w.Streams {
		n += len(s.Tasks)
	}
	return n
}

// finiteNonNeg reports whether x is a finite number >= 0; NaN is not.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// validate checks the workload; checked skips the per-task checks.
func (e *Engine) validate(p *soc.Platform, w Workload, checked bool) error {
	if len(w.Streams) == 0 {
		return fmt.Errorf("sim: empty workload")
	}
	for si, s := range w.Streams {
		for _, dep := range s.After {
			if dep < 0 || dep >= len(w.Streams) {
				return fmt.Errorf("sim: stream %d depends on invalid stream %d", si, dep)
			}
			if dep == si {
				return fmt.Errorf("sim: stream %d depends on itself", si)
			}
		}
		if !checked {
			if err := CheckTasks(p, si, s.Tasks); err != nil {
				return err
			}
		}
	}
	for bi, b := range w.Background {
		if !finiteNonNeg(b.DemandGBps) {
			return fmt.Errorf("sim: background %d (%s): invalid parameters", bi, b.Label)
		}
	}
	if e.cycle(w.Streams) {
		return fmt.Errorf("sim: dependency cycle among streams")
	}
	return nil
}

// CheckTasks runs the engine's per-task checks on the tasks of stream si
// of a workload for p: a valid accelerator, a finite non-negative duration
// and demand, and a memory intensity in [0, 1].
func CheckTasks(p *soc.Platform, si int, tasks []Task) error {
	for ti := range tasks {
		t := &tasks[ti]
		if t.Accel < 0 || t.Accel >= len(p.Accels) {
			return fmt.Errorf("sim: stream %d task %d: invalid accelerator %d", si, ti, t.Accel)
		}
		if !finiteNonNeg(t.BaseMs) || !finiteNonNeg(t.DemandGBps) || !(t.MemIntensity >= 0 && t.MemIntensity <= 1) {
			return fmt.Errorf("sim: stream %d task %d: invalid parameters", si, ti)
		}
	}
	return nil
}

// Dependency-cycle search colours.
const (
	white int8 = iota
	grey
	black
)

// cycle detects cycles in the stream dependency graph.
func (e *Engine) cycle(streams []Stream) bool {
	e.color = resize(e.color, len(streams))
	clear(e.color)
	for s := range streams {
		if e.color[s] == white && visit(streams, e.color, s) {
			return true
		}
	}
	return false
}

func visit(streams []Stream, color []int8, s int) bool {
	color[s] = grey
	for _, d := range streams[s].After {
		if color[d] == grey {
			return true
		}
		if color[d] == white && visit(streams, color, d) {
			return true
		}
	}
	color[s] = black
	return false
}
