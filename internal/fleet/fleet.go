// Package fleet shards multi-tenant inference traffic across a pool of
// SoC serving devices — the production-scale follow-on to internal/serve's
// single-SoC runtime. A Fleet owns N serve.Runtime instances (heterogeneous
// pools of Orin, Xavier and SD865 devices are the expected shape), places
// each arriving request on a device through a pluggable placement policy,
// and interleaves the devices' dispatch rounds in one shared virtual
// timeline through each runtime's Offer, NextStartMs and Step.
//
// Devices of the same platform share one schedule cache: a workload mix
// solved on one Orin warms every Orin in the pool, so the fleet pays each
// mix's solver cost once per platform rather than once per device — the
// semi-isolated-instances-with-a-shared-solution-medium structure, applied
// to schedules instead of populations. (Characterization is shared wider
// still: the profiler memoizes it process-wide.)
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
	"slices"
	"strings"

	"haxconn/internal/obs"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// DeviceSpec requests Count devices of one platform in the pool.
type DeviceSpec struct {
	// Platform is a soc.PlatformByName name ("Orin", "Xavier", "SD865").
	Platform string
	// Count is the number of devices of this platform (default 1).
	Count int
}

// Config controls a fleet dispatcher.
type Config struct {
	// Devices describes the pool (required, at least one device).
	Devices []DeviceSpec
	// Placement chooses a device for each arrival (default RoundRobin).
	Placement Placer
	// Device is the template every device is built from: its serving
	// policy, objective, mix policy and knobs, and its sinks. The fleet
	// sets Platform, Name and SharedCache per device; the control plane
	// may swap a device's mix policy at runtime (serve.Runtime.SetMix).
	// New rejects a template that sets Platform, Name, SharedCache or Mix
	// (one MixFormer instance cannot be stepped by several devices).
	//
	// The sinks are fleet-wide: Tracer records placement decisions plus
	// every device's lifecycle events into one trace; Audit streams every
	// device's predicted-vs-actual pairs plus the fleet's own placement
	// audit — the mix-aware placer's predicted fit (MixFitMs) against the
	// realized makespan of the round that served the request; Serve fills
	// Metrics at the end of the run. All are strictly observational, and
	// Compare clears them.
	Device serve.Config
	// PrivateCaches gives every device its own schedule cache instead of
	// sharing one per platform (for measuring what sharing is worth).
	PrivateCaches bool
	// CacheSolveOwner partitions background solving across cooperating
	// fleets (the sharded control plane's solve ownership): mixes this
	// predicate rejects are served naive and reported as wanted instead of
	// solved locally; see serve.CacheConfig.SolveOwner. Applied to every
	// platform cache. Nil solves everything locally.
	CacheSolveOwner func(mixKey string) bool
}

// checkTemplate rejects a device template that sets what the fleet sets
// per device.
func checkTemplate(d serve.Config) error {
	if d.Platform != nil || d.Name != "" || d.SharedCache != nil || d.Mix != nil {
		return fmt.Errorf("fleet: the device template sets Platform, Name, SharedCache or Mix; the fleet sets the first three per device, and one Mix instance cannot serve several devices")
	}
	return nil
}

// Fleet is the dispatcher: a device pool, a placement policy, and the
// per-platform shared schedule caches. Devices keep their pool index for
// life; a drained device stays in the pool (its completions belong to the
// run) but takes no further placements or steps once removed.
type Fleet struct {
	cfg       Config
	devices   []*serve.Runtime
	placer    Placer
	caches    map[string]*serve.Cache // platform name -> shared cache
	platforms []string                // the keys of caches, sorted
	placed    []int                   // requests routed to each device
	// starts caches each device's NextStartMs. A device's start moves only
	// when the fleet offers it a request, steps it or rewinds it, so
	// NextRound scans these instead of asking every device each event.
	starts      []float64
	draining    []bool         // no new placements; finishing in-flight work
	removed     []bool         // retired: no placements, no steps
	perPlatform map[string]int // per-platform naming counter

	// Placement-decision audit state (only populated when Audit or Tracer
	// is set): the mix-aware placer's predicted fit per in-flight request
	// ID, and per device the (prediction, realized round) pairs of the
	// completions that carried one, buffered in completion order until
	// Summarize flushes them.
	mixFitPred map[int]float64
	placeFits  [][]placeFit

	// onComplete receives every device's completion stream, tagged with
	// the device index (see OnComplete).
	onComplete func(device int, c serve.Completion)
}

// placeFit pairs the mix-aware placer's predicted fit for a request with
// the realized makespan of the round that served it.
type placeFit struct {
	predMs float64
	c      serve.Completion
}

// New validates the configuration and builds the pool. Devices are named
// "<platform>/<i>" with i counting per platform across the whole pool.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no device specs")
	}
	if err := checkTemplate(cfg.Device); err != nil {
		return nil, err
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
			if _, err := f.AddDevice(spec.Platform); err != nil {
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
// with a fresh virtual timeline, the template's mix policy, and is
// immediately placeable. Returns the new device.
func (f *Fleet) AddDevice(platform string) (*serve.Runtime, error) {
	p, ok := soc.PlatformByName(platform)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown platform %q", platform)
	}
	dc := f.cfg.Device
	dc.Platform = p
	dc.Name = fmt.Sprintf("%s/%d", p.Name, f.perPlatform[p.Name])
	if !f.cfg.PrivateCaches {
		c, ok := f.caches[p.Name]
		if !ok {
			cc := dc.CacheConfig()
			cc.SolveOwner = f.cfg.CacheSolveOwner
			var err error
			if c, err = serve.NewCache(cc); err != nil {
				return nil, err
			}
			f.caches[p.Name] = c
			i, _ := slices.BinarySearch(f.platforms, p.Name)
			f.platforms = slices.Insert(f.platforms, i, p.Name)
		}
		dc.SharedCache = c
	}
	rt, err := serve.New(dc)
	if err != nil {
		return nil, err
	}
	i := len(f.devices)
	rt.Subscribe(func(c serve.Completion) { f.completed(i, c) })
	f.perPlatform[p.Name]++
	f.devices = append(f.devices, rt)
	f.starts = append(f.starts, rt.NextStartMs())
	f.placed = append(f.placed, 0)
	f.draining = append(f.draining, false)
	f.removed = append(f.removed, false)
	f.placeFits = append(f.placeFits, nil)
	return rt, nil
}

// OnComplete wires fn into every device's completion stream, present and
// future: each completion a device records is handed to fn once, with the
// device's pool index, as it is recorded. The fleet's devices keep no
// completion logs, so a control plane reads outcomes here.
func (f *Fleet) OnComplete(fn func(device int, c serve.Completion)) { f.onComplete = fn }

// completed is device i's subscriber. A completion that carries the
// mix-aware placer's prediction joins the device's placement-audit buffer
// (the prediction is consumed: each request completes once); then the
// completion goes on to the OnComplete hook.
func (f *Fleet) completed(i int, c serve.Completion) {
	if pred, ok := f.mixFitPred[c.ID]; ok {
		delete(f.mixFitPred, c.ID)
		if c.RoundMakespanMs > 0 {
			f.placeFits[i] = append(f.placeFits[i], placeFit{predMs: pred, c: c})
		}
	}
	if f.onComplete != nil {
		f.onComplete(i, c)
	}
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
// and removed members. Callers may read a device and swap its mix policy,
// but must offer, step and reset devices only through the fleet (Offer,
// Step, Rewind): the fleet caches each device's next round start and
// refreshes it only there.
func (f *Fleet) Devices() []*serve.Runtime { return f.devices }

// Cache returns the shared schedule cache of a platform group (nil when the
// platform has no devices yet or the fleet runs private caches).
func (f *Fleet) Cache(platform string) *serve.Cache { return f.caches[platform] }

// CachePlatforms lists the platform groups with shared caches, sorted.
// The slice is the fleet's own, kept sorted as caches are added; callers
// must not modify it.
func (f *Fleet) CachePlatforms() []string { return f.platforms }

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
// the request. When the placer holds a standing assignment for the tenant
// on a placeable device, the arrival goes there and no views are built;
// otherwise Place decides from a fresh snapshot of the placeable pool.
// Requests must be offered in nondecreasing arrival order. Returns the
// chosen device index and whether the device rejected it.
func (f *Fleet) Offer(req serve.Request) (int, bool, error) {
	j, assigned := f.assigned(req.Tenant)
	var views []DeviceView
	if !assigned {
		var err error
		if views, err = f.views(req); err != nil {
			return -1, false, err
		}
		j = f.placer.Place(req, views)
		if j < 0 || j >= len(f.devices) || !f.placeable(j) {
			return -1, false, fmt.Errorf("fleet: placement %s chose device %d of %d", f.placer.Name(), j, len(f.devices))
		}
	}
	if t := f.cfg.Device.Tracer; t != nil {
		t.Emit(obs.Event{AtMs: req.ArrivalMs, Kind: obs.KindPlace,
			Device: f.devices[j].Name(), Tenant: req.Tenant, Network: req.Network,
			Request: req.ID, Detail: f.placer.Name()})
	}
	if f.cfg.Device.Audit != nil || f.cfg.Device.Tracer != nil {
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
	f.starts[j] = f.devices[j].NextStartMs()
	if err != nil {
		return -1, false, err
	}
	f.placed[j]++
	return j, rejected, nil
}

// assigned returns the placer's standing assignment for the tenant when
// the placer keeps one and the device still takes placements.
func (f *Fleet) assigned(tenant string) (int, bool) {
	a, ok := f.placer.(assignedCapable)
	if !ok {
		return -1, false
	}
	j, ok := a.Assigned(tenant)
	if !ok || j < 0 || j >= len(f.devices) || !f.placeable(j) {
		return -1, false
	}
	return j, true
}

// NextRound returns the device whose next dispatch round starts earliest
// and that start time; ties go to the lowest index so the interleaving is
// deterministic. (-1, +Inf) when every device is idle.
func (f *Fleet) NextRound() (int, float64) {
	di, tDev := -1, math.Inf(1)
	for i, s := range f.starts {
		if s < tDev && !f.removed[i] {
			di, tDev = i, s
		}
	}
	if nextRoundHook != nil {
		nextRoundHook(f, di, tDev)
	}
	return di, tDev
}

// nextRoundHook, set only by tests, sees every NextRound answer, so a test
// can check the cached starts against the devices themselves.
var nextRoundHook func(f *Fleet, di int, tDev float64)

// Step executes one dispatch round on device i.
func (f *Fleet) Step(i int) error {
	if i < 0 || i >= len(f.devices) {
		return fmt.Errorf("fleet: step of device %d of %d", i, len(f.devices))
	}
	err := f.devices[i].Step()
	f.starts[i] = f.devices[i].NextStartMs()
	return err
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
		f.starts[i] = d.NextStartMs()
		f.placed[i] = 0
		f.draining[i] = false
		f.removed[i] = false
	}
	for _, c := range f.caches {
		c.Rewind()
	}
	f.placer.Reset()
	f.mixFitPred = nil
	for i := range f.placeFits {
		f.placeFits[i] = f.placeFits[i][:0]
	}
}

// auditPlacements flushes the buffered placement-audit pairs — each the
// mix-aware placer's predicted fit captured at Offer against the realized
// makespan of the round that served the request — into the audit and the
// trace, device by device in completion order, and empties the buffers,
// so repeated Summarize calls observe each completion once. Strictly
// observational: summaries are the same whether or not an audit or
// tracer is attached.
func (f *Fleet) auditPlacements() {
	audit, tracer := f.cfg.Device.Audit, f.cfg.Device.Tracer
	for i, d := range f.devices {
		for _, pf := range f.placeFits[i] {
			c := pf.c
			audit.Observe("fleet", "device", d.Name(), pf.predMs, c.RoundMakespanMs)
			if tracer != nil {
				tracer.Emit(obs.Event{AtMs: c.EndMs, Kind: obs.KindAudit,
					Device: d.Name(), Tenant: c.Tenant, Network: c.Network,
					Request: c.ID, Detail: "place-fit", Value: pf.predMs - c.RoundMakespanMs,
					Metrics: map[string]float64{
						"predicted_ms": pf.predMs,
						"actual_ms":    c.RoundMakespanMs,
					}})
			}
		}
		f.placeFits[i] = f.placeFits[i][:0]
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
// steps next. The trace may be unsorted; only an unsorted one is copied
// (serve.Trace.InArrivalOrder). Serve rewinds every device first, so
// repeated calls serve independent runs over warm schedule caches, and
// fills the template's Metrics at the end.
func (f *Fleet) Serve(tr serve.Trace) (*Summary, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("fleet: empty trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	f.Rewind()

	reqs := tr.InArrivalOrder()

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
	sum := f.Summarize()
	f.FillMetrics(f.cfg.Device.Metrics)
	return sum, nil
}

// Leg serves the trace on a fresh fleet built from cfg. Every device is
// in the pool for the whole run, so the leg's device-time is the pool
// size times the makespan.
func Leg(name string, cfg Config) serve.Leg {
	return serve.Leg{Name: name, Serve: func(tr serve.Trace) (serve.Row, error) {
		f, err := New(cfg)
		if err != nil {
			return serve.Row{}, err
		}
		sum, err := f.Serve(tr)
		if err != nil {
			return serve.Row{}, err
		}
		return serve.Row{Pool: sum.Pool, MixPolicy: sum.MixPolicy, Total: sum.Total,
			SLOAttainmentPct: sum.SLOAttainmentPct,
			DeviceMs:         float64(len(sum.Devices)) * sum.DurationMs,
			PeakDevices:      len(sum.Devices), Summary: sum}, nil
	}}
}

// Legs returns the legs of a scale-out comparison: the whole trace on a
// single SoC of the pool's first platform (the baseline), then on the
// fleet under each placement policy (default: all four). Every leg is
// built from cfg.Device and runs unobserved: the legs build
// identically-named devices, which one shared tracer would interleave
// indistinguishably (and one shared audit or registry would merge).
// Observe a single fleet run instead.
func Legs(cfg Config, placements ...Placer) ([]serve.Leg, error) {
	if len(placements) == 0 {
		placements = []Placer{RoundRobin(), LeastLoaded(), Affinity(), MixAware()}
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no device specs")
	}
	if err := checkTemplate(cfg.Device); err != nil {
		return nil, err
	}
	p, ok := soc.PlatformByName(cfg.Devices[0].Platform)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown platform %q", cfg.Devices[0].Platform)
	}
	cfg.Device.Tracer, cfg.Device.Audit, cfg.Device.Metrics = nil, nil, nil
	sc := cfg.Device
	sc.Platform = p
	legs := []serve.Leg{serve.RuntimeLeg("single:"+p.Name, sc)}
	for _, pl := range placements {
		c := cfg
		c.Placement = pl
		legs = append(legs, Leg("fleet:"+pl.Name(), c))
	}
	return legs, nil
}
