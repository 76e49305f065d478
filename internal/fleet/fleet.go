// Package fleet shards multi-tenant inference traffic across a pool of
// SoC serving devices — the production-scale follow-on to internal/serve's
// single-SoC runtime. A Fleet owns N serve.Runtime instances (heterogeneous
// pools of Orin, Xavier and SD865 devices are the expected shape), places
// each arriving request on a device through a pluggable placement policy,
// and interleaves the devices' dispatch rounds in one shared virtual
// timeline via the serve.Device stepping interface.
//
// Devices of the same platform share one schedule cache: a workload mix
// solved on one Orin warms every Orin in the pool, so the fleet pays each
// mix's characterization and solver cost once per platform rather than
// once per device — the semi-isolated-instances-with-a-shared-solution-
// medium structure, applied to schedules instead of populations.
//
// Placement policies (see Placer): round-robin spreads blindly,
// least-loaded tracks queue depth and device availability in virtual time,
// affinity routes each network to the device whose profile serves it
// fastest (falling back on load), and mix-aware steers each arrival toward
// the device whose pending queue the request's predicted contention
// balances best — cross-device mix forming, the fleet-level counterpart of
// the contention-aware mix policy. Compare serves the same trace on a
// single SoC and on the fleet under every policy, quantifying both the
// scale-out win and the policy-vs-policy differences.
//
// The pool is elastic: AddDevice grows it mid-run (registering the device
// with its platform's shared cache), Drain stops placements on a device
// while it finishes in-flight work, and Remove retires a drained, empty
// device — the membership protocol internal/control's autoscaler drives.
// Offer, NextRound and Step expose the event loop one event at a time so a
// control plane can interleave its own decisions on the same virtual
// timeline; Serve remains the batteries-included driver over them.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// DeviceSpec requests Count devices of one platform in the pool.
type DeviceSpec struct {
	// Platform is a soc.PlatformByName name ("Orin", "Xavier", "SD865").
	Platform string
	// Count is the number of devices of this platform (default 1).
	Count int
	// MixPolicy overrides the fleet-wide Config.MixPolicy for these
	// devices ("" inherits the fleet default) — a heterogeneous pool can
	// run demand-balance on its big devices and fifo on the small ones.
	MixPolicy string
}

// Config controls a fleet dispatcher.
type Config struct {
	// Devices describes the pool (required, at least one device).
	Devices []DeviceSpec
	// Placement chooses a device for each arrival (default RoundRobin).
	Placement Placer
	// Policy is the per-device serving policy (contention-aware or naive).
	Policy serve.Policy
	// Objective is the per-mix scheduling objective (default MinMaxLatency).
	Objective schedule.Objective
	// MixPolicy names the per-device mix-forming policy (see
	// serve.MixPolicies); "" means fifo. DeviceSpec.MixPolicy overrides it
	// per spec, and the control plane may override it per device at
	// runtime through serve.Device.SetMix.
	MixPolicy string
	// ScoreBeam bounds the contention-aware mix policy's per-round scoring
	// beam on every device (0 = serve.DefaultScoreBeam); see
	// serve.Config.ScoreBeam.
	ScoreBeam int
	// MaxBatch, MaxQueue, AdmitSLOFactor, SolverTimeScale, MaxWaitRounds
	// and MaxGroups are passed through to every device; see serve.Config.
	MaxBatch        int
	MaxQueue        int
	AdmitSLOFactor  float64
	SolverTimeScale float64
	MaxWaitRounds   int
	MaxGroups       int
	// PrivateCaches gives every device its own schedule cache instead of
	// sharing one per platform (for measuring what sharing is worth).
	PrivateCaches bool
	// CacheSolveOwner partitions background solving across cooperating
	// fleets (the sharded control plane's solve ownership): mixes this
	// predicate rejects are served naive and reported as wanted instead of
	// solved locally; see serve.CacheConfig.SolveOwner. Applied to every
	// platform cache. Nil solves everything locally.
	CacheSolveOwner func(mixKey string) bool
	// CacheChars shares one characterization memo across cooperating
	// fleets' platform caches (see serve.CacheConfig.Chars): the sharded
	// plane characterizes each distinct mix once region-wide. Nil
	// characterizes per cache.
	CacheChars *serve.CharMemo
	// AdaptiveMaxWait passes the slack-scaled starvation bound to every
	// device; see serve.Config.AdaptiveMaxWait.
	AdaptiveMaxWait bool
	// Tracer, when set, records placement decisions plus every device's
	// lifecycle events into one trace (see serve.Config.Tracer). Strictly
	// observational; Compare clears it on its comparison legs, whose
	// identically-named devices would otherwise overlap in one trace.
	Tracer *obs.Tracer
	// SketchMetrics summarizes per-device and fleet latencies with the
	// streaming quantile sketch; see serve.Config.SketchMetrics.
	SketchMetrics bool
	// Audit, when set, streams predicted-vs-actual pairs: every device's
	// dispatch-round and per-request predictions (see serve.Config.Audit)
	// plus the fleet's own placement-decision audit — the mix-aware
	// placer's predicted fit (MixFitMs) against the realized makespan of
	// the dispatch round that served the request. Strictly observational;
	// Compare clears it on its comparison legs alongside the tracer.
	Audit *obs.Audit
}

// Fleet is the dispatcher: a device pool, a placement policy, and the
// per-platform shared schedule caches. Devices keep their pool index for
// life; a drained device stays in the pool (its completions belong to the
// run) but takes no further placements or steps once removed.
type Fleet struct {
	cfg         Config
	devices     []serve.Device
	placer      Placer
	caches      map[string]*serve.Cache // platform name -> shared cache
	placed      []int                   // requests routed to each device
	draining    []bool                  // no new placements; finishing in-flight work
	removed     []bool                  // retired: no placements, no steps
	perPlatform map[string]int          // per-platform naming counter

	// Placement-decision audit state (only populated when Audit or Tracer
	// is set): the mix-aware placer's predicted fit per request ID, and a
	// per-device cursor over Completions so repeated Summarize calls
	// observe each realized round exactly once.
	mixFitPred  map[int]float64
	auditCursor []int
}

// New validates the configuration and builds the pool. Devices are named
// "<platform>/<i>" with i counting per platform across the whole pool.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no device specs")
	}
	if cfg.Placement == nil {
		cfg.Placement = RoundRobin()
	}
	f := &Fleet{
		cfg:         cfg,
		placer:      cfg.Placement,
		caches:      map[string]*serve.Cache{},
		perPlatform: map[string]int{},
	}
	for _, spec := range cfg.Devices {
		count := spec.Count
		if count == 0 {
			count = 1
		}
		if count < 0 {
			return nil, fmt.Errorf("fleet: negative device count for %q", spec.Platform)
		}
		for i := 0; i < count; i++ {
			if _, err := f.addDevice(spec.Platform, spec.MixPolicy); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// AddDevice grows the pool by one device of the named platform, registering
// it with the platform's shared schedule cache (created on first use, so a
// device of an unseen platform brings its cache into existence — the hook
// internal/control seeds transferred entries through). The device joins
// with a fresh virtual timeline, the fleet's default mix policy, and is
// immediately placeable. Returns the new device.
func (f *Fleet) AddDevice(platform string) (serve.Device, error) {
	return f.addDevice(platform, "")
}

// addDevice is AddDevice with a per-device mix-policy override ("" uses
// the fleet default).
func (f *Fleet) addDevice(platform, mixPolicy string) (serve.Device, error) {
	p, ok := soc.PlatformByName(platform)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown platform %q", platform)
	}
	var shared *serve.Cache
	if !f.cfg.PrivateCaches {
		if c, ok := f.caches[p.Name]; ok {
			shared = c
		} else {
			c, err := serve.NewCache(serve.CacheConfig{
				Platform:        p,
				Objective:       f.cfg.Objective,
				Solve:           f.cfg.Policy == serve.ContentionAware,
				SolverTimeScale: f.cfg.SolverTimeScale,
				MaxGroups:       f.cfg.MaxGroups,
				SolveOwner:      f.cfg.CacheSolveOwner,
				Chars:           f.cfg.CacheChars,
			})
			if err != nil {
				return nil, err
			}
			if f.cfg.Tracer != nil {
				c.AttachTracer(f.cfg.Tracer)
			}
			f.caches[p.Name] = c
			shared = c
		}
	}
	if mixPolicy == "" {
		mixPolicy = f.cfg.MixPolicy
	}
	rt, err := serve.New(serve.Config{
		Platform:        p,
		Name:            fmt.Sprintf("%s/%d", p.Name, f.perPlatform[p.Name]),
		Objective:       f.cfg.Objective,
		Policy:          f.cfg.Policy,
		MixPolicy:       mixPolicy,
		ScoreBeam:       f.cfg.ScoreBeam,
		MaxBatch:        f.cfg.MaxBatch,
		MaxQueue:        f.cfg.MaxQueue,
		AdmitSLOFactor:  f.cfg.AdmitSLOFactor,
		SolverTimeScale: f.cfg.SolverTimeScale,
		MaxWaitRounds:   f.cfg.MaxWaitRounds,
		MaxGroups:       f.cfg.MaxGroups,
		SharedCache:     shared,
		AdaptiveMaxWait: f.cfg.AdaptiveMaxWait,
		Tracer:          f.cfg.Tracer,
		SketchMetrics:   f.cfg.SketchMetrics,
		Audit:           f.cfg.Audit,
	})
	if err != nil {
		return nil, err
	}
	f.perPlatform[p.Name]++
	f.devices = append(f.devices, rt)
	f.placed = append(f.placed, 0)
	f.draining = append(f.draining, false)
	f.removed = append(f.removed, false)
	f.auditCursor = append(f.auditCursor, 0)
	return rt, nil
}

// Drain marks a device as draining: it takes no new placements but keeps
// stepping until its queue empties. The last placeable device cannot be
// drained — the fleet must always have somewhere to put an arrival.
func (f *Fleet) Drain(i int) error {
	if i < 0 || i >= len(f.devices) {
		return fmt.Errorf("fleet: drain of device %d of %d", i, len(f.devices))
	}
	if f.draining[i] || f.removed[i] {
		return nil
	}
	rest := 0
	for j := range f.devices {
		if j != i && f.placeable(j) {
			rest++
		}
	}
	if rest == 0 {
		return fmt.Errorf("fleet: cannot drain the last placeable device %s", f.devices[i].Name())
	}
	f.draining[i] = true
	return nil
}

// Draining reports whether device i is draining (and not yet removed).
func (f *Fleet) Draining(i int) bool {
	return i >= 0 && i < len(f.devices) && f.draining[i] && !f.removed[i]
}

// Removable reports whether device i has drained dry: marked draining, not
// yet removed, and with no in-flight work left.
func (f *Fleet) Removable(i int) bool {
	return f.Draining(i) && f.devices[i].QueueDepth() == 0
}

// Remove retires a drained, empty device. Its recorded completions stay
// part of the run's summary; it is never placed on or stepped again.
func (f *Fleet) Remove(i int) error {
	if !f.Removable(i) {
		return fmt.Errorf("fleet: device %d is not drained dry", i)
	}
	f.removed[i] = true
	return nil
}

// placeable reports whether device i may receive new placements.
func (f *Fleet) placeable(i int) bool { return !f.draining[i] && !f.removed[i] }

// Devices exposes the pool (for inspection and tests), including drained
// and removed members.
func (f *Fleet) Devices() []serve.Device { return f.devices }

// Cache returns the shared schedule cache of a platform group (nil when the
// platform has no devices yet or the fleet runs private caches).
func (f *Fleet) Cache(platform string) *serve.Cache { return f.caches[platform] }

// CachePlatforms lists the platform groups with shared caches, sorted.
func (f *Fleet) CachePlatforms() []string {
	names := make([]string, 0, len(f.caches))
	for name := range f.caches {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Pool describes the pool compactly ("Orin+Orin+Xavier+SD865").
func (f *Fleet) Pool() string {
	names := make([]string, len(f.devices))
	for i, d := range f.devices {
		names[i] = d.Platform().Name
	}
	return strings.Join(names, "+")
}

// views snapshots the placeable pool state a placement decision steers by.
// A load-blind placer gets identity-only views: the backlog and standalone
// estimates cost an O(queue) scan per device per arrival, and round-robin
// would throw them away.
func (f *Fleet) views(req serve.Request) ([]DeviceView, error) {
	views := make([]DeviceView, 0, len(f.devices))
	loadAware := f.placer.LoadAware()
	ma, _ := f.placer.(mixAwareCapable)
	mixAware := ma != nil && ma.MixAware()
	for i, d := range f.devices {
		if !f.placeable(i) {
			continue
		}
		v := DeviceView{Index: i, Name: d.Name(), Platform: d.Platform().Name}
		if loadAware {
			backlog, err := d.BacklogMs()
			if err != nil {
				return nil, err
			}
			// An unknown network has no profile on any device; placement is
			// load-only and the chosen device's admission rejects it.
			standalone, err := d.StandaloneMs(req.Network)
			if err != nil {
				standalone = 0
			}
			v.QueueDepth = d.QueueDepth()
			v.FreeAtMs = d.ClockMs()
			v.BacklogMs = backlog
			v.StandaloneMs = standalone
			if mixAware {
				// A scoring failure (unknown network) leaves the fit 0; the
				// placer falls back to the standalone signal.
				if fit, err := d.MixFitMs(req.Network); err == nil {
					v.MixFitMs = fit
				}
			}
		}
		views = append(views, v)
	}
	if len(views) == 0 {
		return nil, fmt.Errorf("fleet: no placeable devices")
	}
	return views, nil
}

// Offer places one arriving request: the placement policy chooses among
// the placeable devices and the chosen device's admission controller judges
// the request. Requests must be offered in nondecreasing arrival order.
// Returns the chosen device index and whether the device rejected it.
func (f *Fleet) Offer(req serve.Request) (int, bool, error) {
	views, err := f.views(req)
	if err != nil {
		return -1, false, err
	}
	j := f.placer.Place(req, views)
	if j < 0 || j >= len(f.devices) || !f.placeable(j) {
		return -1, false, fmt.Errorf("fleet: placement %s chose device %d of %d", f.placer.Name(), j, len(f.devices))
	}
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Emit(obs.Event{AtMs: req.ArrivalMs, Kind: obs.KindPlace,
			Device: f.devices[j].Name(), Tenant: req.Tenant, Network: req.Network,
			Request: req.ID, Detail: f.placer.Name()})
	}
	if f.cfg.Audit != nil || f.cfg.Tracer != nil {
		// Decision audit: remember the mix-aware placer's predicted fit for
		// the chosen device so Summarize can pair it with the realized
		// makespan of the round that eventually serves this request.
		for _, v := range views {
			if v.Index == j && v.MixFitMs > 0 {
				if f.mixFitPred == nil {
					f.mixFitPred = map[int]float64{}
				}
				f.mixFitPred[req.ID] = v.MixFitMs
				break
			}
		}
	}
	rejected, err := f.devices[j].Offer(req)
	if err != nil {
		return -1, false, err
	}
	f.placed[j]++
	return j, rejected, nil
}

// NextRound returns the device whose next dispatch round starts earliest
// and that start time; ties go to the lowest index so the interleaving is
// deterministic. (-1, +Inf) when every device is idle.
func (f *Fleet) NextRound() (int, float64) {
	di, tDev := -1, math.Inf(1)
	for i, d := range f.devices {
		if f.removed[i] {
			continue
		}
		if s := d.NextStartMs(); s < tDev {
			di, tDev = i, s
		}
	}
	return di, tDev
}

// Step executes one dispatch round on device i.
func (f *Fleet) Step(i int) error {
	if i < 0 || i >= len(f.devices) {
		return fmt.Errorf("fleet: step of device %d of %d", i, len(f.devices))
	}
	return f.devices[i].Step()
}

// Pending returns the total number of admitted, undispatched requests
// across the pool.
func (f *Fleet) Pending() int {
	n := 0
	for _, d := range f.devices {
		n += d.QueueDepth()
	}
	return n
}

// Rewind resets every device to a fresh virtual timeline, rewinds the
// shared caches (entries stay warm) and clears the placement state. Pool
// membership persists — devices added by AddDevice stay — and drain and
// removal flags clear, so the whole pool starts the new run active.
func (f *Fleet) Rewind() {
	for i, d := range f.devices {
		d.Reset()
		f.placed[i] = 0
		f.draining[i] = false
		f.removed[i] = false
	}
	for _, c := range f.caches {
		c.Rewind()
	}
	f.placer.Reset()
	f.mixFitPred = nil
	for i := range f.auditCursor {
		f.auditCursor[i] = 0
	}
}

// auditPlacements pairs each newly recorded completion's realized round
// makespan with the mix-aware placer's predicted fit captured at Offer,
// streaming the pairs into the audit and the trace. Per-device cursors make
// the scan incremental, so repeated Summarize calls observe each completion
// once. Strictly observational: summaries are assembled from the same
// completions whether or not an audit or tracer is attached.
func (f *Fleet) auditPlacements() {
	if (f.cfg.Audit == nil && f.cfg.Tracer == nil) || len(f.mixFitPred) == 0 {
		return
	}
	for i, d := range f.devices {
		cs := d.Completions()
		for _, c := range cs[f.auditCursor[i]:] {
			pred, ok := f.mixFitPred[c.ID]
			if !ok || c.RoundMakespanMs <= 0 {
				continue
			}
			f.cfg.Audit.Observe("fleet", "device", d.Name(), pred, c.RoundMakespanMs)
			if f.cfg.Tracer != nil {
				f.cfg.Tracer.Emit(obs.Event{AtMs: c.EndMs, Kind: obs.KindAudit,
					Device: d.Name(), Tenant: c.Tenant, Network: c.Network,
					Request: c.ID, Detail: "place-fit", Value: pred - c.RoundMakespanMs,
					Metrics: map[string]float64{
						"predicted_ms": pred,
						"actual_ms":    c.RoundMakespanMs,
					}})
			}
		}
		f.auditCursor[i] = len(cs)
	}
}

// FillMetrics snapshots every device's counters plus the fleet's
// placement and cache state into the registry. No-op on nil.
func (f *Fleet) FillMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Set("fleet.devices", float64(len(f.devices)))
	for i, d := range f.devices {
		// Each device fills its own cache's gauges too; a shared cache's
		// are Set-idempotent, so the platform group converges on one value.
		d.FillMetrics(reg)
		reg.Add("fleet."+d.Name()+".placed", float64(f.placed[i]))
	}
}

// Serve executes the trace across the pool in one shared virtual timeline
// and returns the fleet summary. Events are processed in time order:
// arrivals are placed on a device (and judged by its admission controller)
// the moment they arrive, and whichever device can start a round earliest
// steps next. The trace may be unsorted. Serve rewinds every device first,
// so repeated calls serve independent runs over warm schedule caches.
func (f *Fleet) Serve(tr serve.Trace) (*Summary, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("fleet: empty trace")
	}
	f.Rewind()

	reqs := append(serve.Trace(nil), tr...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ArrivalMs < reqs[j].ArrivalMs })

	next := 0
	for {
		di, tDev := f.NextRound()
		// Arrivals at or before the next round boundary are placed first,
		// mirroring the single-device loop's admit-then-dispatch order.
		if next < len(reqs) && reqs[next].ArrivalMs <= tDev {
			if _, _, err := f.Offer(reqs[next]); err != nil {
				return nil, err
			}
			next++
			continue
		}
		if di < 0 || f.devices[di].QueueDepth() == 0 {
			break // no arrivals left, every device drained
		}
		if err := f.Step(di); err != nil {
			return nil, err
		}
	}
	return f.Summarize(), nil
}

// Comparison holds one trace served on a single SoC and on the fleet under
// several placement policies.
type Comparison struct {
	// Single is the single-SoC baseline: the whole trace on one device of
	// SinglePlatform under the same serving policy and knobs.
	Single         *serve.Summary
	SinglePlatform string
	// Fleets holds one fleet summary per placement policy, in the order
	// the policies were given.
	Fleets []*Summary
}

// Compare serves the same trace on a single SoC of the pool's first
// platform and on the fleet under each placement policy. It quantifies
// both the scale-out win (fleet vs. one SoC) and policy-vs-policy
// differences on identical traffic.
func Compare(cfg Config, tr serve.Trace, placements ...Placer) (*Comparison, error) {
	if len(placements) == 0 {
		placements = []Placer{RoundRobin(), LeastLoaded(), Affinity(), MixAware()}
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no device specs")
	}
	p, ok := soc.PlatformByName(cfg.Devices[0].Platform)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown platform %q", cfg.Devices[0].Platform)
	}
	single, err := serve.New(serve.Config{
		Platform:        p,
		Objective:       cfg.Objective,
		Policy:          cfg.Policy,
		MixPolicy:       cfg.MixPolicy,
		ScoreBeam:       cfg.ScoreBeam,
		MaxBatch:        cfg.MaxBatch,
		MaxQueue:        cfg.MaxQueue,
		AdmitSLOFactor:  cfg.AdmitSLOFactor,
		SolverTimeScale: cfg.SolverTimeScale,
		MaxWaitRounds:   cfg.MaxWaitRounds,
		MaxGroups:       cfg.MaxGroups,
	})
	if err != nil {
		return nil, err
	}
	sum, err := single.Serve(tr)
	if err != nil {
		return nil, err
	}
	out := &Comparison{Single: sum, SinglePlatform: p.Name}
	for _, pl := range placements {
		c := cfg
		c.Placement = pl
		// Each leg builds identically-named devices; one shared tracer
		// would interleave their tracks indistinguishably (and one shared
		// audit would merge their per-device aggregates). Trace or audit a
		// single fleet run instead of a comparison.
		c.Tracer = nil
		c.Audit = nil
		fl, err := New(c)
		if err != nil {
			return nil, err
		}
		fsum, err := fl.Serve(tr)
		if err != nil {
			return nil, err
		}
		out.Fleets = append(out.Fleets, fsum)
	}
	return out, nil
}

// Best returns the fleet summary with the lowest total p99 latency
// (ties: fewer SLO violations, then earlier in the list).
func (c *Comparison) Best() *Summary {
	var best *Summary
	for _, f := range c.Fleets {
		if best == nil ||
			f.Total.P99Ms < best.Total.P99Ms ||
			(f.Total.P99Ms == best.Total.P99Ms && f.Total.Violations < best.Total.Violations) {
			best = f
		}
	}
	return best
}

// P99ImprovementPct is a fleet's p99 latency reduction over the single-SoC
// baseline, in percent (positive = fleet is better).
func (c *Comparison) P99ImprovementPct(f *Summary) float64 {
	if c.Single.Total.P99Ms <= 0 {
		return 0
	}
	return 100 * (1 - f.Total.P99Ms/c.Single.Total.P99Ms)
}

// ViolationsAvoided is a fleet's reduction in SLO violations over the
// single-SoC baseline.
func (c *Comparison) ViolationsAvoided(f *Summary) int {
	return c.Single.Total.Violations - f.Total.Violations
}
