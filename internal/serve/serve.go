// Package serve is an online, contention-aware inference-serving runtime
// layered on the HaX-CoNN engine: named tenants submit inference requests
// for zoo networks with Poisson or periodic arrivals and per-tenant SLOs;
// an admission controller and dispatcher map admitted requests onto the
// SoC's accelerators using contention-aware schedules and execute them on
// the ground-truth simulator in virtual time.
//
// The dispatcher works in rounds: at each round a pluggable mix-forming
// policy (MixFormer) selects which eligible pending requests run
// concurrently — the active workload mix, the multiset of co-running
// networks — and asks the schedule cache for that mix's schedule. The
// default "fifo" policy takes the oldest requests (up to MaxBatch);
// "demand-balance" pairs memory-light with memory-heavy networks using
// the profiler's demand estimates; "slo-aware" dispatches by deadline
// urgency; "contention-aware" scores a bounded beam of candidate batches
// with the analytic contention model and dispatches the best-predicted
// one. Repeated mixes reuse solved schedules; unseen mixes are
// served immediately on the best naive schedule while the anytime solver's
// incumbent stream upgrades the cache entry in the (virtual) background,
// exactly the D-HaX-CoNN operating regime of Sec. 3.5 applied to
// multi-tenant traffic instead of a single camera loop.
//
// Two policies make the contention-aware win measurable under load:
//
//   - ContentionAware: HaX-CoNN schedules from the cache, upgraded online.
//   - NaiveGPUOnly: the single-accelerator greedy baseline — every network
//     on the fastest accelerator, co-runners serializing behind each other.
//
// Compare serves the same trace under both and reports per-tenant
// p50/p95/p99 latency, SLO violations, throughput and cache hit rate.
//
// A Runtime is steppable: Offer hands it one arriving request (running the
// admission controller), NextStartMs reports when its next dispatch round
// can begin, and Step executes exactly one round on the simulator. Serve is
// the single-device driver over those primitives; internal/fleet drives
// many runtimes through the same primitives, interleaving their rounds in
// a shared virtual timeline.
package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"haxconn/internal/core"
	"haxconn/internal/nn"
	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// Policy selects how dispatched mixes are scheduled.
type Policy int

// Policies.
const (
	// ContentionAware serves each mix with the HaX-CoNN schedule from the
	// cache, upgraded as the background anytime solver improves it.
	ContentionAware Policy = iota
	// NaiveGPUOnly serves every mix with the single-accelerator greedy
	// baseline: all layers of all networks on the fastest accelerator.
	NaiveGPUOnly
)

// String returns the policy name.
func (p Policy) String() string {
	if p == NaiveGPUOnly {
		return "naive-gpu-only"
	}
	return "contention-aware"
}

// Request is one inference request in a trace.
type Request struct {
	// ID is the position of the request in the trace (assigned by the
	// load generator; informational).
	ID int
	// Tenant names the submitting client.
	Tenant string
	// Network is the zoo network to run.
	Network string
	// ArrivalMs is the virtual arrival time.
	ArrivalMs float64
	// SLOMs is the per-request latency objective; a completed request
	// whose arrival-to-completion latency exceeds it counts as an SLO
	// violation. Zero disables SLO accounting for the request.
	SLOMs float64
}

// Trace is a request sequence, ordered by arrival time.
type Trace []Request

// InArrivalOrder returns the trace in nondecreasing arrival order: the
// trace itself when it already is — the stable sort would leave it
// unchanged, so no copy is made — and otherwise a stably sorted copy. The
// serving drivers read it and never write it.
func (tr Trace) InArrivalOrder() Trace {
	if slices.IsSortedFunc(tr, func(a, b Request) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) }) {
		return tr
	}
	out := slices.Clone(tr)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ArrivalMs < out[j].ArrivalMs })
	return out
}

// Validate rejects a request whose arrival time or SLO is NaN or
// infinite, naming the request and the field — the checks Generate
// applies to its tenant specs. Every serving entry point validates its
// trace first: a NaN arrival compares false against every round start and
// an infinite one never arrives, so either would stall the event loop or
// leave the request without a terminal state. Everything else about a
// request is judged per request by admission control.
func (tr Trace) Validate() error {
	for _, q := range tr {
		if math.IsNaN(q.ArrivalMs) || math.IsInf(q.ArrivalMs, 0) {
			return fmt.Errorf("serve: request %d has a non-finite ArrivalMs (%g)", q.ID, q.ArrivalMs)
		}
		if math.IsNaN(q.SLOMs) || math.IsInf(q.SLOMs, 0) {
			return fmt.Errorf("serve: request %d has a non-finite SLOMs (%g)", q.ID, q.SLOMs)
		}
	}
	return nil
}

// Config controls a serving runtime.
type Config struct {
	// Platform is the target SoC (required).
	Platform *soc.Platform
	// Name labels the runtime in fleet summaries (default: the platform
	// name). Fleets give each device a unique name ("Orin/0", "Orin/1").
	Name string
	// Objective is the per-mix scheduling objective (default MinMaxLatency).
	Objective schedule.Objective
	// Policy selects contention-aware or naive scheduling.
	Policy Policy
	// MaxBatch caps the number of requests dispatched concurrently in one
	// round (the size of the workload mix). Default: the number of
	// DNN-capable accelerators on the platform.
	MaxBatch int
	// MixPolicy names the mix-forming policy that selects which pending
	// requests form each dispatch round: "fifo" (the default — the oldest
	// eligible requests, the dispatcher's historical behavior),
	// "demand-balance", "slo-aware" or "contention-aware". See
	// MixPolicies.
	MixPolicy string
	// Mix, when set, overrides MixPolicy with a custom policy instance.
	Mix MixFormer
	// ScoreBeam bounds how many candidate batches the contention-aware
	// mix policy scores per dispatch round (0 = DefaultScoreBeam). A wider
	// beam explores more pairings per round at higher dispatch cost;
	// ignored by every other policy.
	ScoreBeam int
	// MaxWaitRounds bounds starvation under non-FIFO mix policies: when
	// the oldest eligible request has been passed over for this many
	// consecutive rounds it is forced into the next batch ahead of the
	// policy's ranking — one forced slot per round, so every queued
	// request makes progress once it reaches the queue head. Zero means
	// DefaultMaxWaitRounds. FIFO never triggers it (the prefix always
	// contains the oldest request).
	MaxWaitRounds int
	// MaxQueue caps a tenant's pending (admitted, undispatched) requests;
	// arrivals beyond it are rejected. Zero means unlimited.
	MaxQueue int
	// AdmitSLOFactor enables SLO-based load shedding: a request whose
	// estimated completion latency (queueing backlog plus standalone
	// service estimate) exceeds AdmitSLOFactor x SLO is rejected at
	// arrival. Zero admits regardless of SLO.
	AdmitSLOFactor float64
	// SolverTimeScale stretches the background solver's virtual solve time
	// when mapping its incumbent stream onto the serving timeline, so
	// upgrade dynamics at Z3-like solve times can be studied. 1, zero or a
	// negative value means unscaled.
	SolverTimeScale float64
	// SharedCache, when set, is used instead of a private schedule cache:
	// a fleet shares one cache among all devices of the same platform, so
	// a mix solved on one Orin warms every Orin. Its configuration must
	// match the one this configuration derives (see CacheConfig).
	SharedCache *Cache
	// AdaptiveMaxWait scales the starvation bound by the oldest eligible
	// request's SLO slack: a request close to its deadline is forced into
	// a batch after fewer passed-over rounds (down to one), while a
	// slack-rich request waits the full MaxWaitRounds. Requests without
	// SLOs always see the full bound.
	AdaptiveMaxWait bool
	// Tracer, when set, records request-lifecycle and dispatch events on
	// the virtual timeline (see internal/obs). Tracing is strictly
	// observational: a traced run produces byte-identical summaries to an
	// untraced one. The tracer is shared by reference and survives Reset,
	// so comparison drivers accumulate all legs into one trace.
	Tracer *obs.Tracer
	// SketchMetrics summarizes latencies with a streaming quantile sketch
	// (O(1) memory per tenant) instead of storing and sorting every
	// sample. Percentiles carry the sketch's documented relative-error
	// bound (obs.DefaultSketchAccuracy); counts, means and maxima stay
	// exact. Off by default: the exact path remains the byte-identical
	// reference.
	SketchMetrics bool
	// Metrics, when set, receives the runtime's counters (rounds, cache
	// effectiveness, prepare calls, queue watermarks) at the end of Serve
	// via FillMetrics. Like Tracer, it is observational only.
	Metrics *obs.Registry
	// Audit, when set, receives the forensics stream: at every dispatch
	// round the deployed schedule is re-evaluated under the analytic
	// contention model (the prediction the solver optimized with) and
	// compared against the ground-truth execution — round makespan pairs
	// per mix, end-to-end latency pairs per tenant and per network. With a
	// Tracer attached the same pairs also land as per-round and
	// per-request "audit" trace events (what cmd/obsreport classifies
	// violations with). Strictly observational: summaries are
	// byte-identical with an audit attached or not.
	Audit *obs.Audit
}

// validate rejects a negative count, beam or factor and a non-finite
// float, naming the field. A zero or negative SolverTimeScale means
// unscaled.
func (c Config) validate() error {
	if c.Platform == nil {
		return fmt.Errorf("serve: nil platform")
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"MaxBatch", float64(c.MaxBatch)},
		{"MaxQueue", float64(c.MaxQueue)},
		{"MaxWaitRounds", float64(c.MaxWaitRounds)},
		{"ScoreBeam", float64(c.ScoreBeam)},
		{"AdmitSLOFactor", c.AdmitSLOFactor},
	} {
		if k.v < 0 || math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("serve: %s is %g, want a finite value >= 0", k.name, k.v)
		}
	}
	if math.IsNaN(c.SolverTimeScale) || math.IsInf(c.SolverTimeScale, 0) {
		return fmt.Errorf("serve: SolverTimeScale is %g, want a finite value", c.SolverTimeScale)
	}
	return nil
}

// CacheConfig derives the schedule-cache configuration a runtime with
// this configuration solves under. New builds a private cache from it and
// requires a shared cache to match it; a fleet builds each platform's
// shared cache from it, adding the solve-ownership partition.
func (c Config) CacheConfig() CacheConfig {
	return CacheConfig{
		Platform:        c.Platform,
		Objective:       c.Objective,
		Solve:           c.Policy == ContentionAware,
		SolverTimeScale: c.SolverTimeScale,
	}
}

// Runtime is the serving executor: admission controller, dispatcher and
// schedule cache bound to one platform and policy. Its zero state is the
// start of a fresh virtual timeline; Offer/Step advance it one event at a
// time, and Serve drives a whole trace.
type Runtime struct {
	cfg    Config
	cache  *Cache
	former MixFormer
	// est and estErr are the per-network estimate memos by zoo index: the
	// estimates (nil until the first characterization) and the failures,
	// the negative cache (nil until the first failure).
	est      []netEstimate
	estErr   []error
	prepares int // core.Prepare calls issued by the estimators

	// Virtual-timeline state, advanced by Offer and Step.
	clockMs float64 // end of the last dispatched round
	busyMs  float64 // total round time (clock advance while dispatching)
	pending []Request
	nets    []int     // pending[i]'s zoo index, resolved at admission
	waited  []int     // rounds pending[i] was eligible but passed over
	demands []float64 // pending[i]'s DemandGBps, NaN until first read (pendingDemand)
	// queued counts each tenant's pending requests for the MaxQueue
	// admission check, its only reader; nil when MaxQueue is zero, so an
	// uncapped runtime pays no map write per request.
	queued map[string]int
	rounds int

	// The completion stream: record hands every completion, once, to the
	// tally (what Summary reads), then to each subscriber. The log is kept
	// only while nothing subscribes: a fleet subscribes to every device it
	// builds, and a standalone runtime keeps its log for Completions.
	tally       *Tally
	subs        []func(Completion)
	completions []Completion

	// Cache effectiveness local to this runtime: with a shared cache the
	// cache's own counters aggregate over all devices in the group.
	hits, misses, upgrades int
	// lastSched is the schedule this runtime last deployed for each cache
	// mix slot; nil where it deployed none.
	lastSched []*schedule.Schedule

	// Observability state (see Config.Tracer/Metrics).
	peakQueue int // high watermark of the pending queue
	forced    int // starvation-bound forced dispatches

	// Per-round scratch buffers reused across Step calls. Step runs on one
	// goroutine and nothing retains these slices past the round (cache keys
	// and entries copy what they keep), so pooling them removes the
	// dispatcher's steady-state allocations per round.
	candScratch    []Candidate
	batchScratch   []Request
	batchNets      []int
	fitMarks       []bool
	composeScratch composeScratch

	// score is the round arena every mix policy and the contention-aware
	// scorer carve from, and scoreFn/scoreManyFn are the scorer's
	// BatchScorer and BatchScorerMany, bound once so wiring them into a
	// round allocates nothing.
	score       scoreArena
	scoreFn     BatchScorer
	scoreManyFn BatchScorerMany
}

// netEstimate is one network's standalone estimates on a runtime: its
// contention-free service time, NaN until the network is characterized,
// and its memory demand.
type netEstimate struct{ standaloneMs, demandGBps float64 }

// scoreArena is one dispatch round's arena: the eligible candidates, their
// zoo indices and the round start the mix scorer reads, plus an arena per
// element type that the mix policy (FormInput carries it) and every
// scoring wave carve their buffers from. Step begins it afresh every
// round, under every policy, and nothing carved from it is reused within
// the round, so a first wave's scores stay valid while the lookahead wave
// runs, BatchScore.EndMs lives until Form returns and the policy's
// selection until the next round. Once the arenas have grown to a round's
// demand, forming and scoring a batch allocate nothing.
type scoreArena struct {
	cands   []Candidate
	nets    []int // cands[i]'s zoo index, -1 outside the zoo
	startMs float64

	ints    []int
	lists   [][]int
	floats  []float64
	scores  []BatchScore
	oks     []bool
	entries []*Entry
	errs    []error
	evals   []*schedule.Eval
}

// begin starts a round over cands, whose zoo indices are nets: the arenas
// are emptied, keeping their capacity.
func (a *scoreArena) begin(cands []Candidate, nets []int, startMs float64) {
	a.cands, a.nets, a.startMs = cands, nets, startMs
	a.ints, a.lists, a.floats = a.ints[:0], a.lists[:0], a.floats[:0]
	a.scores, a.oks = a.scores[:0], a.oks[:0]
	a.entries, a.errs, a.evals = a.entries[:0], a.errs[:0], a.evals[:0]
}

// carve returns n zeroed elements from the arena *a. A full arena moves to
// a fresh backing array of twice the size, so earlier carves stay intact.
func carve[T any](a *[]T, n int) []T {
	s := carveRaw(a, n)
	clear(s)
	return s
}

// carveRaw is carve without the clearing, for a caller that overwrites
// every element before it reads any: until then the elements hold what an
// earlier round left there.
func carveRaw[T any](a *[]T, n int) []T {
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, max(2*cap(*a), n))
	}
	l := len(*a)
	*a = (*a)[:l+n]
	return (*a)[l : l+n : l+n]
}

// New validates the configuration and builds a runtime with an empty
// schedule cache (or bound to cfg.SharedCache).
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	former := cfg.Mix
	if former == nil {
		if MixPolicyName(cfg.MixPolicy) == MixContentionAware {
			former = ContentionAwareMix(cfg.ScoreBeam)
		} else {
			var err error
			former, err = NewMixFormer(cfg.MixPolicy)
			if err != nil {
				return nil, err
			}
		}
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Platform.Name
	}
	if cfg.MaxBatch == 0 {
		for _, a := range cfg.Platform.Accels {
			if a.Kind != soc.CPU {
				cfg.MaxBatch++
			}
		}
		if cfg.MaxBatch == 0 {
			cfg.MaxBatch = 1
		}
	}
	cache := cfg.SharedCache
	if cache != nil {
		// Once a cache is shared, its config governs solving — a silently
		// differing runtime knob would be dropped, so fail fast instead.
		if have, want := cache.cfg.solving(), cfg.CacheConfig().solving(); have != want {
			return nil, fmt.Errorf("serve: shared cache solves %+v, runtime config derives %+v", have, want)
		}
	} else {
		var err error
		if cache, err = NewCache(cfg.CacheConfig()); err != nil {
			return nil, err
		}
	}
	if cfg.Tracer != nil {
		cache.AttachTracer(cfg.Tracer)
	}
	if cfg.SharedCache == nil {
		// A private cache belongs to this runtime, so its events and
		// metrics carry the runtime's (possibly per-comparison-leg)
		// name; a shared cache keeps platform-level attribution.
		cache.name = cfg.Name
	}
	rt := &Runtime{
		cfg:    cfg,
		cache:  cache,
		former: former,
		tally:  newTally(cfg.SketchMetrics),
	}
	if cfg.MaxQueue > 0 {
		rt.queued = map[string]int{}
	}
	rt.scoreFn, rt.scoreManyFn = rt.scoreOne, rt.scoreMany
	return rt, nil
}

// DefaultMaxWaitRounds is the starvation bound under non-FIFO mix
// policies: the oldest eligible request is forced into the next round
// after being passed over this many consecutive times.
const DefaultMaxWaitRounds = 4

// maxWait resolves the configured starvation bound.
func (r *Runtime) maxWait() int {
	if r.cfg.MaxWaitRounds > 0 {
		return r.cfg.MaxWaitRounds
	}
	return DefaultMaxWaitRounds
}

// Cache exposes the runtime's schedule cache (for inspection and tests).
func (r *Runtime) Cache() *Cache { return r.cache }

// Name returns the device label (Config.Name, default the platform name).
func (r *Runtime) Name() string { return r.cfg.Name }

// Platform returns the SoC the runtime serves on.
func (r *Runtime) Platform() *soc.Platform { return r.cfg.Platform }

// MixPolicy returns the active mix-forming policy's name.
func (r *Runtime) MixPolicy() string { return r.former.Name() }

// SetMix swaps the mix-forming policy, taking effect at the next dispatch
// round (nil restores the FIFO default). The control plane uses it to
// choose a policy per device from offered-mix pressure; the swap survives
// Reset, like the schedule cache.
func (r *Runtime) SetMix(m MixFormer) {
	if m == nil {
		m = FIFO()
	}
	r.former = m
}

// ClockMs returns the end of the last dispatched round — the earliest
// virtual time the device is free again.
func (r *Runtime) ClockMs() float64 { return r.clockMs }

// QueueDepth returns the number of admitted, undispatched requests.
func (r *Runtime) QueueDepth() int { return len(r.pending) }

// BusyMs returns the total virtual time the device spent executing
// dispatch rounds — the numerator of its utilization. The control plane
// windows successive readings over its tick period to decide scaling.
func (r *Runtime) BusyMs() float64 { return r.busyMs }

// Rounds returns the number of dispatch rounds executed so far.
func (r *Runtime) Rounds() int { return r.rounds }

// Completions returns the outcomes recorded since the last Reset (served
// and rejected), in processing order, for a runtime nothing subscribes to
// — whether Serve drives it or Offer and Step do. A subscribed runtime,
// such as every device a fleet builds, keeps no log and returns nil. The
// slice is the runtime's own; callers must not mutate it.
func (r *Runtime) Completions() []Completion { return r.completions }

// Subscribe adds fn to the runtime's completion stream: every completion
// recorded from now on is handed to fn, once, in processing order, after
// the runtime's own tally. A subscriber is the runtime's owner consuming
// the stream, so a subscribed runtime keeps no completion log (and drops
// the one it had). Subscribers survive Reset.
func (r *Runtime) Subscribe(fn func(Completion)) {
	r.subs = append(r.subs, fn)
	r.completions = nil
}

// Tally returns the runtime's completion tally since the last Reset: what
// Summary reads, and what a fleet merges over its devices
// (SummarizeTallies). It is the runtime's own and keeps folding
// completions as they are recorded.
func (r *Runtime) Tally() *Tally { return r.tally }

// CacheCounters returns this runtime's own cache effectiveness: lookups it
// performed that hit or missed, and deployments that advanced to a newer
// solver incumbent. With a private cache these equal the cache's counters;
// with a shared cache the cache aggregates over the whole device group.
func (r *Runtime) CacheCounters() (hits, misses, upgrades int) {
	return r.hits, r.misses, r.upgrades
}

// Reset rewinds the runtime to the start of a fresh virtual timeline,
// dropping pending requests, completions and local cache counters. The
// schedule cache is retained — solved mixes stay warm — but a private
// cache is rewound with the runtime so its entries re-anchor to the new
// timeline (a shared cache belongs to the fleet, which rewinds it once
// per run across all devices).
func (r *Runtime) Reset() {
	r.clockMs = 0
	r.busyMs = 0
	r.pending = nil
	r.nets = nil
	r.waited = nil
	r.demands = nil
	clear(r.queued)
	// An empty tally is already a fresh one (a new runtime's first Serve).
	if r.tally.total.offered > 0 {
		r.tally = newTally(r.cfg.SketchMetrics)
	}
	r.completions = nil
	r.rounds = 0
	r.hits, r.misses, r.upgrades = 0, 0, 0
	clear(r.lastSched)
	r.peakQueue = 0
	r.forced = 0
	if r.cfg.SharedCache == nil {
		r.cache.Rewind()
	}
}

// trace emits one event with the runtime's device label filled in; no-op
// without a configured tracer.
func (r *Runtime) trace(e obs.Event) {
	if r.cfg.Tracer == nil {
		return
	}
	e.Device = r.cfg.Name
	r.cfg.Tracer.Emit(e)
}

// record registers one outcome: it feeds the tally, then the log or the
// subscribers, and emits the lifecycle event. Every completion — served
// or rejected — flows through here.
func (r *Runtime) record(c Completion) {
	r.tally.observe(c)
	if len(r.subs) == 0 {
		r.completions = append(r.completions, c)
	}
	for _, fn := range r.subs {
		fn(c)
	}
	if r.cfg.Tracer == nil {
		return
	}
	if c.Rejected {
		r.trace(obs.Event{AtMs: math.Max(r.clockMs, c.ArrivalMs), Kind: obs.KindReject,
			Tenant: c.Tenant, Network: c.Network, Request: c.ID, Detail: c.RejectReason})
		return
	}
	r.trace(obs.Event{AtMs: c.EndMs, Kind: obs.KindComplete,
		Tenant: c.Tenant, Network: c.Network, Request: c.ID, Value: c.LatencyMs})
	if c.Violated {
		r.trace(obs.Event{AtMs: c.EndMs, Kind: obs.KindViolate,
			Tenant: c.Tenant, Network: c.Network, Request: c.ID, Value: c.LatencyMs - c.SLOMs})
	}
}

// estimate returns the estimates of zoo network i, characterizing it the
// first time it is asked for. It negative-caches the failure: a network
// whose characterization fails once is never re-prepared — the hot
// dispatch path (demand ranking, spread probes, admission and backlog
// estimates) must not repeat a failing prepare every round.
func (r *Runtime) estimate(i int) (netEstimate, error) {
	if e := r.estimates()[i]; !math.IsNaN(e.standaloneMs) {
		return e, nil
	}
	if r.estErr != nil && r.estErr[i] != nil {
		return netEstimate{}, r.estErr[i]
	}
	ms, d, err := r.characterize(nn.Name(i))
	if err != nil {
		if r.estErr == nil {
			r.estErr = make([]error, nn.Count())
		}
		r.estErr[i] = err
		return netEstimate{}, err
	}
	r.est[i] = netEstimate{ms, d}
	return r.est[i], nil
}

// estimates returns the estimate memo, allocating it, every network
// uncharacterized, on first use.
func (r *Runtime) estimates() []netEstimate {
	if r.est == nil {
		r.est = make([]netEstimate, nn.Count())
		for i := range r.est {
			r.est[i].standaloneMs = math.NaN()
		}
	}
	return r.est
}

// estimateOf is estimate by network name. A name outside the zoo fails at
// its index lookup (errUnknownNetwork): nothing is characterized for it.
func (r *Runtime) estimateOf(network string) (netEstimate, error) {
	i, ok := nn.Index(network)
	if !ok {
		return netEstimate{}, errUnknownNetwork
	}
	return r.estimate(i)
}

// characterize computes a network's standalone estimates (service time and
// memory demand) with one core.Prepare, whose tables come from the
// profiler's process-wide memo once any runtime on the same platform has
// characterized the network.
func (r *Runtime) characterize(network string) (standaloneMs, demandGBps float64, err error) {
	r.prepares++
	_, pr, err := core.Prepare(core.Request{Platform: r.cfg.Platform, Networks: []string{network}})
	if err != nil {
		return 0, 0, err
	}
	var weighted, total float64
	for g := range pr.Groups[0] {
		best := pr.Allowed[0]
		for _, a := range pr.Allowed {
			if pr.Exec[0][g][a].LatencyMs < pr.Exec[0][g][best].LatencyMs {
				best = a
			}
		}
		e := pr.Exec[0][g][best]
		weighted += e.LatencyMs * e.DemandGBps
		total += e.LatencyMs
	}
	d := 0.0
	if total > 0 {
		d = weighted / total
	}
	return schedule.MinBaseLatencyMs(pr, 0, 1), d, nil
}

// PrepareCalls reports how many core.Prepare calls the runtime's
// estimators have issued, at most one per network — the regression signal
// that the estimate memos (positive and negative) short-circuit the hot
// path. A call whose tables the profiler already holds computes none.
func (r *Runtime) PrepareCalls() int { return r.prepares }

// StandaloneMs estimates a network's contention-free service time on this
// device: the minimum per-group latency over the allowed accelerators. It
// is the admission controller's service-time estimate and the affinity
// placement signal. It characterizes directly (core.Prepare) rather than
// going through the schedule cache: admission needs no solve, and must not
// perturb the cache's hit/upgrade accounting. Failures are memoized like
// successes, so a network that cannot be characterized costs one prepare,
// ever; a name outside the zoo costs none.
func (r *Runtime) StandaloneMs(network string) (float64, error) {
	e, err := r.estimateOf(network)
	if err != nil {
		return 0, err
	}
	return e.standaloneMs, nil
}

// DemandGBps estimates a network's standalone memory demand on this
// device: the time-weighted mean of per-group demand along the fastest
// per-group accelerator path (the same path StandaloneMs costs). It is
// the demand-balance mix policy's ranking signal — computed from the
// profiler's characterization, memoized per network (errors included),
// and independent of the schedule cache so demand ranking never perturbs
// hit accounting.
func (r *Runtime) DemandGBps(network string) (float64, error) {
	e, err := r.estimateOf(network)
	if err != nil {
		return 0, err
	}
	return e.demandGBps, nil
}

// scoreOne is the round's BatchScorer: the analytic contention model
// applied to the schedule the runtime would actually deploy for a
// candidate batch's mix right now — Deployable on the mix-keyed cache
// entry, whether live (dispatched before) or a scoring probe. Probes
// solve speculatively with their replay anchored at first-probe time, so
// a candidate the policy keeps weighing keeps improving — and is already
// warm if it eventually wins. Scoring never touches the cache's
// hit/miss/upgrade accounting, so a scored-but-not-dispatched mix leaves
// no trace in the summary. It is scoreMany on a single selection.
func (r *Runtime) scoreOne(sel []int) (BatchScore, bool) {
	scores, oks := r.scoreMany([][]int{sel})
	return scores[0], oks[0]
}

// scoreMany is the round's BatchScorerMany: scoreOne over a whole
// candidate set at once. Each selection is canonicalized on the round's
// arena (sorted by zoo index — name order — and queue order among equals,
// as dispatch orders the batch), the unseen mixes' characterizations and
// speculative solves run concurrently (Cache.probeAll), and evaluations
// the entries have not memoized run on the evaluation pool
// (evaluateAll). Scores, cache counters and the cache-probe and
// mix-score event streams are identical to scoring each sel serially —
// results are assembled and events emitted in sel order after the
// concurrent work joins. Only the interleaving of the two kinds differs:
// a wave commits its probes before it emits its scores. A selection
// naming a network outside the zoo does not score.
func (r *Runtime) scoreMany(sels [][]int) ([]BatchScore, []bool) {
	sc := &r.score
	nets := sc.nets
	scores, oks := carve(&sc.scores, len(sels)), carve(&sc.oks, len(sels))
	canons := carveRaw(&sc.lists, len(sels))
	mixes := carveRaw(&sc.lists, len(sels))[:0]
	pos := carveRaw(&sc.ints, len(sels))[:0]
	for i, sel := range sels {
		canons[i] = nil
		if len(sel) == 0 || slices.ContainsFunc(sel, func(j int) bool { return nets[j] < 0 }) {
			continue
		}
		// Canonical mix order mirrors dispatch: by zoo index, queue order
		// among equals, so StreamEndMs maps 1:1 onto canon.
		canon, mix := carveRaw(&sc.ints, len(sel)), carveRaw(&sc.ints, len(sel))
		for k, j := range sel {
			canon[k], mix[k] = j, nets[j]
		}
		for k := 1; k < len(mix); k++ {
			for j := k; j > 0 && (mix[j] < mix[j-1] || mix[j] == mix[j-1] && canon[j] < canon[j-1]); j-- {
				mix[j], mix[j-1] = mix[j-1], mix[j]
				canon[j], canon[j-1] = canon[j-1], canon[j]
			}
		}
		canons[i] = canon
		mixes = append(mixes, mix)
		pos = append(pos, i)
	}
	entries, errs := carve(&sc.entries, len(mixes)), carve(&sc.errs, len(mixes))
	r.cache.probeAll(mixes, sc.startMs, entries, errs)
	evs := carve(&sc.evals, len(mixes))
	r.evaluateAll(entries, evs, sc.startMs)
	for k, i := range pos {
		ev := evs[k]
		if ev == nil {
			continue
		}
		if r.cfg.Tracer != nil {
			r.trace(obs.Event{AtMs: sc.startMs, Kind: obs.KindMixScore, Request: obs.NoRequest,
				Detail: strings.Join(entries[k].Networks, "+"), Value: ev.MakespanMs})
		}
		// EndMs is in ascending queue order: canon[j]'s end goes to its
		// rank in the selection.
		canon := canons[i]
		ends := carveRaw(&sc.floats, len(canon))
		for j, q := range canon {
			rank := 0
			for l, o := range canon {
				if o < q || o == q && l < j {
					rank++
				}
			}
			ends[rank] = ev.StreamEndMs[j]
		}
		scores[i], oks[i] = BatchScore{MakespanMs: ev.MakespanMs, EndMs: ends}, true
	}
	return scores, oks
}

// evaluateAll sets evs[k] to the ground-truth evaluation of the schedule
// this runtime would deploy for entries[k] at atMs, leaving it nil where
// the entry is nil or its evaluation fails. A memoized evaluation — every
// one on a warm cache — is read inline. The rest run on the evaluation
// pool, one goroutine per distinct entry; every memo is checked before any
// goroutine starts, so no entry's memo is touched by two goroutines.
func (r *Runtime) evaluateAll(entries []*Entry, evs []*schedule.Eval, atMs float64) {
	type job struct {
		e   *Entry
		s   *schedule.Schedule
		ev  *schedule.Eval
		err error
	}
	var jobs []*job
	find := func(e *Entry) *job {
		for _, j := range jobs {
			if j.e == e {
				return j
			}
		}
		return nil
	}
	for k, e := range entries {
		if e == nil {
			continue
		}
		s := r.deployable(e, atMs)
		if ev, ok := e.evaluated(s); ok {
			evs[k] = ev
		} else if find(e) == nil {
			jobs = append(jobs, &job{e: e, s: s})
		}
	}
	if len(jobs) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		//detlint:allow baregoroutine beam scorer pool: one goroutine per distinct unmemoized entry, memos checked serially before launch, wg.Wait barrier, scores consumed in deterministic beam order
		go func(j *job) {
			defer wg.Done()
			j.ev, j.err = j.e.Evaluate(j.s)
		}(j)
	}
	wg.Wait()
	for k, e := range entries {
		if e == nil || evs[k] != nil {
			continue
		}
		if j := find(e); j.err == nil {
			evs[k] = j.ev
		}
	}
}

// deployable is the schedule this runtime would deploy for the entry at
// atMs: the entry's current incumbent under the contention-aware policy,
// the naive schedule under the naive one. Batch scoring and fleet
// placement (MixFitMs) both rank by its evaluation, so any change to
// schedule choice belongs here.
func (r *Runtime) deployable(e *Entry, atMs float64) *schedule.Schedule {
	if r.cfg.Policy == ContentionAware {
		return e.Deployable(atMs)
	}
	return e.Naive
}

// MixFitMs predicts how well a network would co-run with this device's
// pending work: the minimum model-predicted makespan of pairing the
// arrival with any distinct pending network, scored exactly as the
// contention-aware mix policy scores candidate batches — the ground-truth
// evaluation of the schedule this runtime would deploy for the pair now
// (deployable), through a probe, so an unseen pair is characterized and
// speculatively solved without touching hit/miss accounting. With nothing
// pending it degrades to the standalone estimate — an idle device offers
// the contention-free co-run. The fleet's mix-aware placer steers by it,
// extending mix-awareness above the device boundary.
func (r *Runtime) MixFitMs(network string) (float64, error) {
	i, ok := nn.Index(network)
	if !ok {
		return 0, errUnknownNetwork
	}
	if len(r.pending) == 0 {
		e, err := r.estimate(i)
		return e.standaloneMs, err
	}
	// Each distinct pending network once, in index (that is, name) order.
	if r.fitMarks == nil {
		r.fitMarks = make([]bool, nn.Count())
	}
	clear(r.fitMarks)
	for _, q := range r.nets {
		r.fitMarks[q] = true
	}
	best := math.Inf(1)
	for q, pending := range r.fitMarks {
		if !pending {
			continue
		}
		pair := [2]int{min(i, q), max(i, q)}
		entry, _, err := r.cache.probe(pair[:], r.clockMs)
		if err != nil {
			return 0, err
		}
		ev, err := entry.Evaluate(r.deployable(entry, r.clockMs))
		if err != nil {
			return 0, err
		}
		best = math.Min(best, ev.MakespanMs)
	}
	return best, nil
}

// pendingDemand returns pending[i]'s demand estimate from its slot,
// filling the slot from its network's estimates the first time it is read.
// A failed estimate leaves the slot empty, so every read repeats the
// memoized error.
func (r *Runtime) pendingDemand(i int) (float64, error) {
	if d := r.demands[i]; !math.IsNaN(d) {
		return d, nil
	}
	e, err := r.estimate(r.nets[i])
	if err != nil {
		return 0, err
	}
	r.demands[i] = e.demandGBps
	return e.demandGBps, nil
}

// PendingDemandSpread is the gap between the heaviest and lightest
// estimated memory demand among pending requests' networks — the
// offered-mix pressure signal the control plane reads when choosing a
// device's mix policy. Zero with fewer than two pending requests. It reads
// the per-request demand slots Step fills, filling any still empty.
func (r *Runtime) PendingDemandSpread() (float64, error) {
	if len(r.pending) < 2 {
		return 0, nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range r.pending {
		d, err := r.pendingDemand(i)
		if err != nil {
			return 0, err
		}
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return hi - lo, nil
}

// BacklogMs estimates the queueing delay a new arrival would see: the sum
// of standalone service estimates over pending requests, divided by the
// dispatch width.
func (r *Runtime) BacklogMs() (float64, error) {
	var total float64
	for _, i := range r.nets {
		e, err := r.estimate(i)
		if err != nil {
			return 0, err
		}
		total += e.standaloneMs
	}
	return total / float64(r.cfg.MaxBatch), nil
}

// Admission rejection reasons.
const (
	RejectInvalidTenant  = "invalid-tenant"
	RejectUnknownNetwork = "unknown-network"
	RejectQueueFull      = "queue-full"
	RejectSLO            = "slo-unattainable"
)

// admit decides whether to accept a request given the current backlog,
// resolving its network to its zoo index. It returns a non-empty reason
// when the request is rejected. Malformed requests (no tenant, a reserved
// tenant name, an unknown network) are rejected rather than erroring, so
// one bad request cannot take down the serving loop.
func (r *Runtime) admit(req Request, nowMs float64) (reason string, net int, err error) {
	if req.Tenant == "" || req.Tenant == totalName {
		return RejectInvalidTenant, 0, nil
	}
	net, ok := nn.Index(req.Network)
	if !ok {
		return RejectUnknownNetwork, 0, nil
	}
	if r.cfg.MaxQueue > 0 && r.queued[req.Tenant] >= r.cfg.MaxQueue {
		return RejectQueueFull, net, nil
	}
	if r.cfg.AdmitSLOFactor > 0 && req.SLOMs > 0 {
		backlog, err := r.BacklogMs()
		if err != nil {
			return "", net, err
		}
		service, err := r.estimate(net)
		if err != nil {
			return "", net, err
		}
		est := (nowMs - req.ArrivalMs) + backlog + service.standaloneMs
		if est > r.cfg.AdmitSLOFactor*req.SLOMs {
			return RejectSLO, net, nil
		}
	}
	return "", net, nil
}

// Offer hands the runtime one arriving request. The admission controller
// runs at max(device clock, arrival time) — a request arriving while a
// round is in flight is judged at the round boundary, exactly as in the
// single-device serving loop. Rejections are recorded as completions; the
// returned boolean reports whether the request was rejected. Requests must
// be offered in nondecreasing arrival order.
func (r *Runtime) Offer(req Request) (bool, error) {
	now := math.Max(r.clockMs, req.ArrivalMs)
	r.trace(obs.Event{AtMs: req.ArrivalMs, Kind: obs.KindArrive,
		Tenant: req.Tenant, Network: req.Network, Request: req.ID})
	reason, net, err := r.admit(req, now)
	if err != nil {
		return false, err
	}
	if reason != "" {
		r.record(Completion{Request: req, Rejected: true, RejectReason: reason})
		return true, nil
	}
	if r.queued != nil {
		r.queued[req.Tenant]++
	}
	r.pending = append(r.pending, req)
	r.nets = append(r.nets, net)
	r.waited = append(r.waited, 0)
	r.demands = append(r.demands, math.NaN())
	if len(r.pending) > r.peakQueue {
		r.peakQueue = len(r.pending)
	}
	r.trace(obs.Event{AtMs: now, Kind: obs.KindAdmit,
		Tenant: req.Tenant, Network: req.Network, Request: req.ID, Value: float64(len(r.pending))})
	return false, nil
}

// NextStartMs returns the earliest virtual time the next dispatch round can
// begin: the device must be free and the oldest pending request must have
// arrived. +Inf when nothing is pending.
func (r *Runtime) NextStartMs() float64 {
	if len(r.pending) == 0 {
		return math.Inf(1)
	}
	return math.Max(r.clockMs, r.pending[0].ArrivalMs)
}

// Step dispatches one round: the mix-forming policy selects up to
// MaxBatch eligible pending requests (all arrived by the round start) as
// the workload mix, the schedule cache supplies the mix's schedule, and
// the ground-truth simulator executes it. The runtime enforces the
// starvation bound around the policy (see Config.MaxWaitRounds). The
// device clock advances to the round's end. Step is a no-op when nothing
// is pending.
func (r *Runtime) Step() error {
	start := r.NextStartMs()
	if math.IsInf(start, 1) {
		return nil
	}
	// Pending is in arrival order, so the eligible set — everything that
	// has arrived by the round start — is a contiguous prefix.
	m := len(r.pending)
	for m > 0 && r.pending[m-1].ArrivalMs > start {
		m--
	}
	// The FIFO former only ever reads the first MaxBatch candidates, so
	// cap the materialized view and keep the default hot path O(MaxBatch)
	// per round instead of O(backlog) — the pre-mix-former dispatcher's
	// cost. (Requests beyond the cap would be dispatched before their
	// wait could ever matter, so aging them is moot.)
	if _, fifo := r.former.(fifoFormer); fifo && m > r.cfg.MaxBatch {
		m = r.cfg.MaxBatch
	}
	// Grown like an append, so a queue that deepens a request at a time
	// reallocates the view a logarithmic number of times, not every round.
	cands := slices.Grow(r.candScratch[:0], m)[:m]
	r.candScratch = cands
	for i := 0; i < m; i++ {
		cands[i] = Candidate{Request: r.pending[i], WaitedRounds: r.waited[i]}
	}
	if r.former.DemandAware() {
		for i := range cands {
			d, err := r.pendingDemand(i)
			if err != nil {
				return err
			}
			cands[i].DemandGBps = d
		}
	}
	r.score.begin(cands, r.nets[:m], start)
	in := FormInput{StartMs: start, MaxBatch: r.cfg.MaxBatch, Eligible: cands, arena: &r.score}
	if sa, ok := r.former.(scoreAware); ok && sa.ScoreAware() {
		in.Score, in.ScoreMany = r.scoreFn, r.scoreManyFn
	}
	sel := r.former.Form(in)
	bound := r.maxWait()
	if r.cfg.AdaptiveMaxWait && len(cands) > 0 {
		bound = adaptiveWaitBound(bound, cands[0], start)
	}
	if len(cands) > 0 && cands[0].WaitedRounds >= bound && !selectedIndex(sel, 0) {
		// The starvation bound overrides the policy: the oldest eligible
		// request is forced into this batch.
		r.forced++
		r.trace(obs.Event{AtMs: start, Kind: obs.KindForce,
			Tenant: cands[0].Tenant, Network: cands[0].Network, Request: cands[0].ID,
			Detail: r.former.Name(), Value: float64(cands[0].WaitedRounds)})
	}
	picks, err := composeBatch(sel, cands, r.cfg.MaxBatch, bound, &r.composeScratch)
	if err != nil {
		return fmt.Errorf("serve: mix policy %s: %v", r.former.Name(), err)
	}
	r.trace(obs.Event{AtMs: start, Kind: obs.KindMixForm, Request: obs.NoRequest,
		Detail: r.former.Name(), Value: float64(len(picks))})
	n := len(picks)
	batch, mix := r.batchScratch[:0], r.batchNets[:0]
	for _, i := range picks {
		batch = append(batch, r.pending[i])
		mix = append(mix, r.nets[i])
	}
	r.batchScratch, r.batchNets = batch, mix
	// Remove the batch from the queue (picks are in ascending queue
	// order); every eligible request passed over ages one round.
	keepReq, keepNet, keepWait, keepDemand, pi := r.pending[:0], r.nets[:0], r.waited[:0], r.demands[:0], 0
	for i := range r.pending {
		if pi < len(picks) && picks[pi] == i {
			pi++
			continue
		}
		w := r.waited[i]
		if i < m {
			w++
		}
		keepReq = append(keepReq, r.pending[i])
		keepNet = append(keepNet, r.nets[i])
		keepWait = append(keepWait, w)
		keepDemand = append(keepDemand, r.demands[i])
	}
	r.pending, r.nets, r.waited, r.demands = keepReq, keepNet, keepWait, keepDemand
	if r.queued != nil {
		for _, b := range batch {
			r.queued[b.Tenant]--
		}
	}
	// Canonical mix order: by zoo index (name order), FIFO among equals,
	// so the batch maps 1:1 onto the cached problem's items. An insertion
	// sort is stable, and a batch holds at most MaxBatch requests.
	for k := 1; k < len(mix); k++ {
		for j := k; j > 0 && mix[j] < mix[j-1]; j-- {
			mix[j], mix[j-1] = mix[j-1], mix[j]
			batch[j], batch[j-1] = batch[j-1], batch[j]
		}
	}
	entry, hit, err := r.cache.lookup(mix, start)
	if err != nil {
		return err
	}
	if hit {
		r.hits++
		r.trace(obs.Event{AtMs: start, Kind: obs.KindCacheHit, Request: obs.NoRequest, Detail: entry.Key})
	} else {
		r.misses++
		r.trace(obs.Event{AtMs: start, Kind: obs.KindCacheMiss, Request: obs.NoRequest, Detail: entry.Key})
	}
	s := entry.Naive
	if r.cfg.Policy == ContentionAware {
		s = entry.Use(start)
		if int(entry.slot) >= len(r.lastSched) {
			// Cover every slot the cache has numbered so far, not only this
			// one, so the record grows rarely.
			r.lastSched = append(r.lastSched, make([]*schedule.Schedule, len(r.cache.slots)-len(r.lastSched))...)
		}
		if prev := r.lastSched[entry.slot]; prev != nil && s != prev {
			r.upgrades++
			r.trace(obs.Event{AtMs: start, Kind: obs.KindUpgrade, Request: obs.NoRequest, Detail: entry.Key})
		}
		r.lastSched[entry.slot] = s
	}
	ev, err := entry.Evaluate(s)
	if err != nil {
		return err
	}
	r.trace(obs.Event{AtMs: start, DurMs: ev.MakespanMs, Kind: obs.KindDispatch,
		Request: obs.NoRequest, Detail: entry.Key, Value: float64(n)})
	if r.cfg.Audit != nil || r.cfg.Tracer != nil {
		if err := r.auditRound(entry, s, ev, batch, start); err != nil {
			return err
		}
	}
	for k, b := range batch {
		end := start + ev.StreamEndMs[k]
		c := Completion{
			Request:         b,
			StartMs:         start,
			EndMs:           end,
			LatencyMs:       end - b.ArrivalMs,
			RoundMakespanMs: ev.MakespanMs,
		}
		if b.SLOMs > 0 && c.LatencyMs > b.SLOMs {
			c.Violated = true
		}
		r.record(c)
	}
	r.clockMs = start + ev.MakespanMs
	r.busyMs += ev.MakespanMs
	r.rounds++
	return nil
}

// auditRound is the prediction audit of one dispatch round: the deployed
// schedule is re-evaluated under the analytic contention model
// (Entry.Predict) and the model's numbers — round makespan, per-request
// end offsets — are paired with the ground-truth execution the round
// actually ran (ev). Pairs stream into the audit aggregates, and under a
// tracer each round and each request leaves an "audit" event carrying the
// pair plus the queue wait and SLO — everything cmd/obsreport needs to
// attribute a violation to misprediction vs. waiting. Purely
// observational: nothing here touches schedule choice, counters or the
// clock, and Predict's evaluations are memoized per (mix, schedule).
func (r *Runtime) auditRound(entry *Entry, s *schedule.Schedule, ev *schedule.Eval, batch []Request, start float64) error {
	pv, err := entry.Predict(s)
	if err != nil {
		return err
	}
	r.cfg.Audit.Observe("serve", "mix", entry.Key, pv.MakespanMs, ev.MakespanMs)
	r.trace(obs.Event{AtMs: start, Kind: obs.KindAudit, Request: obs.NoRequest,
		Detail: entry.Key, Value: pv.MakespanMs - ev.MakespanMs,
		Metrics: map[string]float64{
			"predicted_ms": pv.MakespanMs,
			"actual_ms":    ev.MakespanMs,
		}})
	for k, b := range batch {
		pred := start + pv.StreamEndMs[k] - b.ArrivalMs
		act := start + ev.StreamEndMs[k] - b.ArrivalMs
		r.cfg.Audit.Observe("serve", "tenant", b.Tenant, pred, act)
		r.cfg.Audit.Observe("serve", "network", b.Network, pred, act)
		r.trace(obs.Event{AtMs: start, Kind: obs.KindAudit,
			Tenant: b.Tenant, Network: b.Network, Request: b.ID, Detail: entry.Key,
			Value: pred - act,
			Metrics: map[string]float64{
				"predicted_lat_ms": pred,
				"actual_lat_ms":    act,
				"queue_wait_ms":    start - b.ArrivalMs,
				"slo_ms":           b.SLOMs,
			}})
	}
	return nil
}

// selectedIndex reports whether the policy's ranked selection contains
// index i (selections are short — at most MaxBatch — so a scan is fine).
func selectedIndex(sel []int, i int) bool {
	for _, s := range sel {
		if s == i {
			return true
		}
	}
	return false
}

// adaptiveWaitBound scales the starvation bound by the oldest eligible
// request's remaining SLO slack at the round start: full slack (or no
// SLO) keeps the configured bound, an expired deadline tightens it to one
// round, and the bound interpolates linearly in between — so urgent
// tenants stop waiting behind a policy's ranking sooner, without
// collapsing relaxed traffic back to FIFO.
func adaptiveWaitBound(maxWait int, oldest Candidate, startMs float64) int {
	if oldest.SLOMs <= 0 {
		return maxWait
	}
	frac := oldest.SlackMs(startMs) / oldest.SLOMs
	switch {
	case frac >= 1:
		return maxWait
	case frac <= 0:
		return 1
	default:
		return 1 + int(frac*float64(maxWait-1))
	}
}

// Summary reads the outcomes recorded so far from the runtime's tally into
// a serving summary. In sketch mode (Config.SketchMetrics) the percentile
// columns come from per-tenant sketches instead of stored samples.
func (r *Runtime) Summary() *Summary {
	sum := r.tally.summarize(r.cfg.Policy, r.cfg.Platform.Name, r.cfg.Objective)
	sum.MixPolicy = r.former.Name()
	sum.Rounds = r.rounds
	sum.CacheHits, sum.CacheMisses, sum.CacheUpgrades = r.hits, r.misses, r.upgrades
	if t := sum.CacheHits + sum.CacheMisses; t > 0 {
		sum.CacheHitRate = float64(sum.CacheHits) / float64(t)
	}
	return sum
}

// Serve executes the trace in virtual time and returns the serving
// summary. The trace may be unsorted; it is served in arrival order, from
// a sorted copy only when it is not already sorted (InArrivalOrder). Serve
// rewinds the virtual timeline first (Reset), so repeated calls on one
// runtime serve independent runs over a warm schedule cache.
func (r *Runtime) Serve(tr Trace) (*Summary, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	r.Reset()
	// Every offered request ends in exactly one completion, so the log and
	// the tally's TOTAL run are sized once.
	if len(r.subs) == 0 {
		r.completions = make([]Completion, 0, len(tr))
	}
	if !r.tally.sketch {
		r.tally.total.lats = make([]float64, 0, len(tr))
	}
	reqs := tr.InArrivalOrder()

	next := 0
	for next < len(reqs) || len(r.pending) > 0 {
		// Arrivals up to the next round boundary are offered first, so
		// admission sees them exactly as the round-loop formulation did.
		if next < len(reqs) && reqs[next].ArrivalMs <= r.NextStartMs() {
			if _, err := r.Offer(reqs[next]); err != nil {
				return nil, err
			}
			next++
			continue
		}
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	r.FillMetrics(r.cfg.Metrics)
	return r.Summary(), nil
}

// FillMetrics snapshots the runtime's counters into the registry under
// the "serve.<name>." namespace (plus the cache's own under
// "cache.<platform>."). No-op on a nil registry. Counters use Add so a
// comparison driver accumulating several legs with identical names sums
// them; pass distinct Config.Name values to keep legs apart.
func (r *Runtime) FillMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p := "serve." + r.cfg.Name + "."
	reg.Add(p+"rounds", float64(r.rounds))
	reg.Add(p+"busy_ms", r.busyMs)
	reg.Set(p+"clock_ms", r.clockMs)
	reg.Add(p+"completions", float64(r.tally.total.offered))
	reg.Set(p+"queue_depth", float64(len(r.pending)))
	reg.Set(p+"queue_peak", float64(r.peakQueue))
	reg.Add(p+"cache_hits", float64(r.hits))
	reg.Add(p+"cache_misses", float64(r.misses))
	reg.Add(p+"cache_upgrades", float64(r.upgrades))
	reg.Add(p+"prepare_calls", float64(r.prepares))
	reg.Add(p+"forced_dispatches", float64(r.forced))
	if r.former.Name() == MixContentionAware {
		beam := r.cfg.ScoreBeam
		if beam <= 0 {
			beam = DefaultScoreBeam
		}
		reg.Set(p+"score_beam", float64(beam))
	}
	r.cache.FillMetrics(reg)
}
