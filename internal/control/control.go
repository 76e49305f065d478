// Package control is the elastic fleet control plane: a deterministic
// virtual-time loop that sits above internal/fleet and closes the loop
// from observed SLO pressure to fleet shape. Three cooperating parts:
//
//   - An autoscaler samples the queued-backlog estimate the admission
//     controller already computes, plus per-device utilization, each
//     control tick, and grows or shrinks the device pool against
//     configurable high/low watermarks with hysteresis (consecutive-tick
//     streaks plus a post-action cooldown). New devices register with
//     their platform's shared schedule cache; shrinking drains a device —
//     it finishes in-flight work before removal.
//
//   - A sticky placement and migration manager replaces per-request
//     placement with a tenant-to-device assignment table, rebalancing a
//     tenant onto a less-loaded device only when its rolling p99 or
//     violation rate crosses an SLO-pressure threshold — cutting the
//     cache misses and locality loss that per-request spraying causes on
//     big pools.
//
//   - A cache-transfer seeder: when a device of an unseen platform joins,
//     its schedule cache is seeded from another platform's solved
//     assignments, re-costed on the joining platform's profile
//     (serve.Cache.SeedFromSchedule), instead of starting naive.
//
// Every decision is driven by the shared virtual timeline — ticks, round
// boundaries and arrivals interleave in deterministic order — so seeded
// runs are byte-identical. Compare serves identical bursty traffic on a
// static fleet of the controlled fleet's maximum size and reports the
// trade: the controlled fleet tracks offered load, spending device-time
// only when pressure demands it.
package control

import (
	"fmt"
	"math"
	"slices"

	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/serve"
)

// Config controls the control plane. The zero value of every knob picks a
// sensible default (see the constants below); the fleet configuration's
// Devices field is the initial pool and its Placement is ignored — the
// controller always places through its sticky assignment table.
type Config struct {
	// Fleet is the initial pool and the device template. The template's
	// sinks observe the control plane too: Fleet.Device.Tracer records its
	// decisions (scale, migration and mix events plus per-tick pool
	// samples) alongside the fleet's placement and device lifecycle
	// events, Fleet.Device.Audit its reaction-lag pairs, and
	// Fleet.Device.Metrics receives the run's counters at end of serve —
	// the fleet's per-device metrics plus the control plane's own (ticks,
	// scale events, migrations, device-ms). Observational only.
	Fleet fleet.Config

	// TickMs is the control-loop period in virtual ms (default 25).
	TickMs float64

	// HighWatermarkMs and LowWatermarkMs bound the autoscaling signal: the
	// mean queued-backlog estimate per active device. Above high for
	// HysteresisTicks consecutive ticks the pool grows; below low for the
	// same streak it shrinks. Defaults 10 and 2. Utilization is the second
	// signal (GrowUtilizationPct, ShrinkUtilizationPct).
	HighWatermarkMs float64
	LowWatermarkMs  float64
	// HysteresisTicks is the consecutive-tick streak required before a
	// scaling action (default 2); CooldownTicks is the pause after one
	// (default 4).
	HysteresisTicks int
	CooldownTicks   int
	// MinDevices and MaxDevices bound the active pool size (defaults: the
	// initial pool size, and initial+2).
	MinDevices int
	MaxDevices int
	// GrowPlatforms names the platforms the autoscaler adds, cycled in
	// order (default: the first device spec's platform).
	GrowPlatforms []string
	// NoCacheSeeding disables cross-platform cache transfer: a joining
	// device of an unseen platform starts its cache naive.
	NoCacheSeeding bool

	// SLOWindow is the per-tenant rolling completion window the migration
	// manager judges (default 24). No judgment is made below a fill of
	// MinWindow, or of the whole window when that is smaller.
	SLOWindow int
	// PressureP99Factor triggers migration when a tenant's rolling p99
	// exceeds factor x SLO (default 1.0); a rolling violation rate above
	// PressureViolationRate triggers it too. NoMigration pins tenants to
	// their first assignment.
	PressureP99Factor float64
	NoMigration       bool

	// AdaptiveMix lets the controller choose each device's mix-forming
	// policy from offered-mix pressure: when the spread between the
	// heaviest and lightest estimated memory demand in a device's pending
	// queue exceeds MixSpreadGBps, the device switches to demand-balance;
	// once the spread falls back below — or the device starts draining —
	// it returns to the template's policy. Every switch is logged as a
	// "mix" scale event. Escalation follows the template's ScoreBeam: when
	// Fleet.Device.ScoreBeam is positive, a spread-triggered switch goes to
	// the contention-aware mix policy with that beam width
	// (predicted-makespan batch scoring) instead of demand-balance. Zero
	// keeps the scalar heuristic — scoring costs model evaluations per
	// dispatch round, so it is opt-in.
	AdaptiveMix bool
	// MixSpreadGBps is the demand-spread threshold (default 10).
	MixSpreadGBps float64
}

// Defaults.
const (
	DefaultTickMs            = 25.0
	DefaultHighWatermarkMs   = 10.0
	DefaultLowWatermarkMs    = 2.0
	DefaultHysteresisTicks   = 2
	DefaultCooldownTicks     = 4
	DefaultSLOWindow         = 24
	DefaultPressureP99Factor = 1.0
	DefaultMixSpreadGBps     = 10.0
)

// Fixed thresholds.
const (
	// GrowUtilizationPct and ShrinkUtilizationPct bound the second
	// autoscaling signal, the mean fraction of the last tick the active
	// devices spent executing rounds. Above grow-pct counts toward the grow
	// streak even with an empty backlog; shrinking also requires
	// utilization below shrink-pct, so a pool that is keeping up but
	// running hot is not torn down mid-burst.
	GrowUtilizationPct   = 85.0
	ShrinkUtilizationPct = 35.0
	// PressureViolationRate triggers migration when a tenant's rolling
	// violation rate exceeds it.
	PressureViolationRate = 0.5
	// MinWindow is the rolling-window fill below which the migration
	// manager judges no tenant (capped at SLOWindow).
	MinWindow = 8
	// MigrationCooldownTicks is the per-tenant pause after a migration.
	MigrationCooldownTicks = 4
)

// withDefaults resolves zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.TickMs <= 0 {
		c.TickMs = DefaultTickMs
	}
	if c.HighWatermarkMs <= 0 {
		c.HighWatermarkMs = DefaultHighWatermarkMs
	}
	if c.LowWatermarkMs <= 0 {
		c.LowWatermarkMs = DefaultLowWatermarkMs
	}
	if c.HysteresisTicks <= 0 {
		c.HysteresisTicks = DefaultHysteresisTicks
	}
	if c.CooldownTicks <= 0 {
		c.CooldownTicks = DefaultCooldownTicks
	}
	initial := 0
	for _, d := range c.Fleet.Devices {
		n := d.Count
		if n == 0 {
			n = 1
		}
		initial += n
	}
	if c.MinDevices <= 0 {
		c.MinDevices = initial
	}
	if c.MaxDevices <= 0 {
		c.MaxDevices = initial + 2
	}
	if len(c.GrowPlatforms) == 0 && len(c.Fleet.Devices) > 0 {
		c.GrowPlatforms = []string{c.Fleet.Devices[0].Platform}
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = DefaultSLOWindow
	}
	if c.PressureP99Factor <= 0 {
		c.PressureP99Factor = DefaultPressureP99Factor
	}
	if c.MixSpreadGBps <= 0 {
		c.MixSpreadGBps = DefaultMixSpreadGBps
	}
	return c
}

// validate rejects inconsistent configurations. It runs after
// withDefaults, so a zero or negative knob has already become its default;
// a NaN or +Inf one survives defaulting and is rejected here by name.
func (c Config) validate() error {
	if len(c.Fleet.Devices) == 0 {
		return fmt.Errorf("control: no initial device specs")
	}
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"TickMs", c.TickMs},
		{"HighWatermarkMs", c.HighWatermarkMs},
		{"LowWatermarkMs", c.LowWatermarkMs},
		{"PressureP99Factor", c.PressureP99Factor},
		{"MixSpreadGBps", c.MixSpreadGBps},
	} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("control: %s is %g, want a finite value", k.name, k.v)
		}
	}
	if c.LowWatermarkMs >= c.HighWatermarkMs {
		return fmt.Errorf("control: low watermark %.1f >= high watermark %.1f", c.LowWatermarkMs, c.HighWatermarkMs)
	}
	if c.MinDevices > c.MaxDevices {
		return fmt.Errorf("control: min devices %d > max devices %d", c.MinDevices, c.MaxDevices)
	}
	return nil
}

// ScaleEvent is one autoscaling action on the virtual timeline.
type ScaleEvent struct {
	// AtMs is the control tick's virtual time.
	AtMs float64
	// Action is "grow" (device added), "drain" (device marked draining),
	// "remove" (drained device retired) or "mix" (the adaptive-mix hook
	// switched the device's mix-forming policy).
	Action string
	// Device and Platform identify the affected device.
	Device   string
	Platform string
	// Active is the placeable pool size after the action.
	Active int
	// BacklogMs is the decision signal at action time: the mean backlog
	// per active device for grow/drain/remove, the device's pending
	// demand spread (GB/s) for mix switches.
	BacklogMs float64
	// Seeded counts cache entries transferred from another platform that
	// beat the naive schedule (grow of an unseen platform only).
	Seeded int
	// Mix is the mix-forming policy a "mix" action switched the device to.
	Mix string
	// ReactionTicks is the grow action's reaction lag: control ticks from
	// the watermark trip that opened the pressure window to the tick both
	// autoscaling signals fell back under their grow thresholds. -1 when
	// the run ended with the window still open; 0 for non-grow actions.
	// Every grow inside one pressure window reports the same lag — the lag
	// measures the window, not the individual device add.
	ReactionTicks int
}

// Migration is one sticky-assignment rebalance.
type Migration struct {
	// AtMs is the control tick's virtual time.
	AtMs float64
	// Tenant moved From one device To another.
	Tenant string
	From   string
	To     string
	// Reason is "slo-pressure" (rolling p99 or violation rate crossed the
	// threshold) or "drain" (the assigned device is shutting down).
	Reason string
	// RollingP99Ms and ViolationRate are the tenant's window statistics at
	// decision time (zero for drain-forced moves of idle tenants).
	RollingP99Ms  float64
	ViolationRate float64
}

// PoolSample is one control tick's view of the pool.
type PoolSample struct {
	AtMs float64
	// Active counts placeable devices; Draining those finishing in-flight
	// work before removal.
	Active   int
	Draining int
	// BacklogMs is the mean queued-backlog estimate per active device and
	// UtilizationPct the mean fraction of the last control period the
	// active devices spent executing rounds — the two autoscaling signals.
	BacklogMs      float64
	UtilizationPct float64
}

// Summary is the outcome of serving one trace under the control plane.
type Summary struct {
	// Fleet is the underlying fleet summary (placement "sticky").
	Fleet *fleet.Summary
	// TickMs echoes the control period.
	TickMs float64
	// Scale, Migrations and Timeline are the control plane's decision log.
	Scale      []ScaleEvent
	Migrations []Migration
	Timeline   []PoolSample
	// DeviceMs is the device-time consumed: the sum over devices of their
	// active span (join to removal, or to end of run), in virtual ms. A
	// static pool consumes pool-size x duration; an elastic pool less.
	DeviceMs float64
	// PeakDevices and FinalDevices are the largest and final placeable
	// pool sizes; SeededEntries counts cache entries transferred to newly
	// joined platforms that beat their naive schedule.
	PeakDevices   int
	FinalDevices  int
	SeededEntries int
}

// Controller drives a fleet through one trace, autoscaling and migrating
// on the virtual timeline. It is stateless between Serve calls: each run
// builds a fresh fleet from the configured initial pool, so repeated
// serves are independent and deterministic.
type Controller struct {
	cfg Config
}

// New validates the configuration and builds a controller.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg}, nil
}

// Config returns the resolved configuration (defaults applied).
func (c *Controller) Config() Config { return c.cfg }

// Serve executes the trace under the control plane and returns the control
// summary. The trace may be unsorted. Serve is Start + Advance to
// infinity + Finish (see Driver), so a one-shot run and an incrementally
// driven run of the same trace are byte-identical.
func (c *Controller) Serve(tr serve.Trace) (*Summary, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("control: empty trace")
	}
	d, err := c.Start(tr)
	if err != nil {
		return nil, err
	}
	if _, err := d.Advance(math.Inf(1)); err != nil {
		return nil, err
	}
	return d.Finish(), nil
}

// run is the per-Serve state: the fleet, the sticky table, and the
// controller's bookkeeping. The fleet's completion stream
// (Fleet.OnComplete) fills the per-device served buffers between ticks.
type run struct {
	cfg   Config
	fleet *fleet.Fleet
	table *stickyTable

	joinMs   []float64            // per device index
	leaveMs  []float64            // -1 until removed
	served   [][]serve.Completion // per device: served since the last tick, in completion order
	prevBusy []float64            // BusyMs at the previous tick (utilization windowing)

	tenants map[string]*tenantWindow
	names   []string   // the keys of tenants, sorted; grows with it
	byDev   [][]string // bestDevice's tenants per device, reused

	hiStreak, loStreak int
	cooldown           int
	growIdx            int
	lastTickMs         float64
	lastUtilPct        float64

	events     []ScaleEvent
	migrations []Migration
	timeline   []PoolSample
	seeded     int
	peak       int

	// Reaction-lag audit: a pressure window opens at the tick either
	// autoscaling signal first trips its grow threshold and closes at the
	// first tick both are back under it. Tracked unconditionally — the
	// window annotates every grow event's ReactionTicks, with or without an
	// audit or tracer attached.
	tickNo         int
	windowOpen     bool
	windowTripMs   float64
	windowTripTick int
	lagOpen        []int // indices into events of grows inside the open window
	lagTotal       int   // summed reaction lag over closed windows
	lagWindows     int   // closed windows
}

// logScale records one scale event and mirrors it into the trace.
func (r *run) logScale(e ScaleEvent) {
	r.events = append(r.events, e)
	if t := r.cfg.Fleet.Device.Tracer; t != nil {
		detail := e.Action
		if e.Mix != "" {
			detail += ":" + e.Mix
		}
		t.Emit(obs.Event{AtMs: e.AtMs, Kind: obs.KindScale, Device: e.Device,
			Request: obs.NoRequest, Detail: detail, Value: e.BacklogMs})
	}
}

// logMigration records one migration and mirrors it into the trace.
func (r *run) logMigration(m Migration) {
	r.migrations = append(r.migrations, m)
	if t := r.cfg.Fleet.Device.Tracer; t != nil {
		t.Emit(obs.Event{AtMs: m.AtMs, Kind: obs.KindMigrate, Tenant: m.Tenant,
			Request: obs.NoRequest, Detail: m.From + "->" + m.To + " (" + m.Reason + ")",
			Value: m.RollingP99Ms})
	}
}

func newRun(cfg Config) (*run, error) {
	r := &run{cfg: cfg, table: newStickyTable(), tenants: map[string]*tenantWindow{}}
	fc := cfg.Fleet
	fc.Placement = r.table
	f, err := fleet.New(fc)
	if err != nil {
		return nil, err
	}
	r.fleet = f
	f.OnComplete(r.completed)
	n := len(f.Devices())
	if n > cfg.MaxDevices {
		return nil, fmt.Errorf("control: initial pool %d exceeds max devices %d", n, cfg.MaxDevices)
	}
	r.joinMs = make([]float64, n)
	r.leaveMs = make([]float64, n)
	for i := range r.leaveMs {
		r.leaveMs[i] = -1
	}
	r.served = make([][]serve.Completion, n)
	r.prevBusy = make([]float64, n)
	r.peak = n
	return r, nil
}

// completed is the fleet's completion stream: device i's served
// completions wait in its buffer until the next tick ingests them.
func (r *run) completed(i int, c serve.Completion) {
	if !c.Rejected {
		r.served[i] = append(r.served[i], c)
	}
}

// tick runs one control period: ingest completions into the tenant
// windows, retire drained devices, autoscale, then migrate.
func (r *run) tick(nowMs float64) error {
	r.tickNo++
	r.ingest()
	r.retire(nowMs)
	r.sample(nowMs)
	if err := r.autoscale(nowMs); err != nil {
		return err
	}
	if !r.cfg.NoMigration {
		r.migrate(nowMs)
	}
	if r.cfg.AdaptiveMix {
		if err := r.adaptMix(nowMs); err != nil {
			return err
		}
	}
	return nil
}

// adaptMix is the per-device mix-policy hook: each tick the controller
// reads every placeable device's offered-mix pressure — the spread
// between the heaviest and lightest estimated memory demand in its
// pending queue — and switches the device to demand-balance (or to
// contention-aware when the template's ScoreBeam is positive) while the
// spread exceeds the threshold, back to the template's policy, which
// every device starts on, once it subsides. A switched device that starts
// draining is restored immediately: pressure routing no longer applies to
// a device receiving no placements, and leaving the adaptive policy in
// place for the whole drain would silently outlive the signal that chose
// it. Devices are visited in pool-index order and each switch (and
// restore) is logged, so adaptive runs stay byte-identical rerun to
// rerun.
func (r *run) adaptMix(nowMs float64) error {
	base := serve.MixPolicyName(r.cfg.Fleet.Device.MixPolicy)
	for i, d := range r.fleet.Devices() {
		if r.leaveMs[i] >= 0 {
			continue
		}
		if r.fleet.Draining(i) {
			if d.MixPolicy() != base {
				if err := r.switchMix(d, base, nowMs, 0); err != nil {
					return err
				}
			}
			continue
		}
		spread, err := d.PendingDemandSpread()
		if err != nil {
			return err
		}
		want := base
		if spread > r.cfg.MixSpreadGBps {
			want = serve.MixDemandBalance
			// A scoring budget escalates the switch to contention-aware —
			// as does a device already configured contention-aware, which
			// pressure must never downgrade to the scalar heuristic.
			if r.cfg.Fleet.Device.ScoreBeam > 0 || base == serve.MixContentionAware {
				want = serve.MixContentionAware
			}
		}
		if d.MixPolicy() == want {
			continue
		}
		if err := r.switchMix(d, want, nowMs, spread); err != nil {
			return err
		}
	}
	return nil
}

// switchMix swaps one device's mix-forming policy and logs the "mix"
// scale event (spread is the decision signal; 0 for drain restores). A
// contention-aware former scores with the template's beam.
func (r *run) switchMix(d *serve.Runtime, want string, nowMs, spread float64) error {
	var m serve.MixFormer
	if want == serve.MixContentionAware {
		m = serve.ContentionAwareMix(r.cfg.Fleet.Device.ScoreBeam)
	} else {
		var err error
		m, err = serve.NewMixFormer(want)
		if err != nil {
			return err
		}
	}
	d.SetMix(m)
	r.logScale(ScaleEvent{
		AtMs: nowMs, Action: "mix", Device: d.Name(), Platform: d.Platform().Name,
		Active: r.active(), BacklogMs: spread, Mix: want,
	})
	return nil
}

// ingest folds the completions served since the last tick into the
// tenants' rolling windows, device by device in pool order and each
// device's in completion order, then empties the buffers for reuse. The
// order is the windows' contents, so migration decisions depend on it.
func (r *run) ingest() {
	for i, cs := range r.served {
		for _, c := range cs {
			w := r.tenants[c.Tenant]
			if w == nil {
				w = newTenantWindow(r.cfg.SLOWindow)
				r.tenants[c.Tenant] = w
				at, _ := slices.BinarySearch(r.names, c.Tenant)
				r.names = slices.Insert(r.names, at, c.Tenant)
			}
			w.add(c)
		}
		r.served[i] = cs[:0]
	}
}

// retire removes drained devices that have run dry.
func (r *run) retire(nowMs float64) {
	for i := range r.fleet.Devices() {
		if !r.fleet.Removable(i) {
			continue
		}
		if err := r.fleet.Remove(i); err != nil {
			continue
		}
		r.leaveMs[i] = nowMs
		d := r.fleet.Devices()[i]
		r.logScale(ScaleEvent{
			AtMs: nowMs, Action: "remove", Device: d.Name(), Platform: d.Platform().Name,
			Active: r.active(),
		})
	}
}

// active counts placeable devices.
func (r *run) active() int {
	n := 0
	for i := range r.fleet.Devices() {
		if !r.fleet.Draining(i) && r.leaveMs[i] < 0 {
			n++
		}
	}
	return n
}

// pressure is the autoscaling signal: the mean queued-backlog estimate per
// active device.
func (r *run) pressure() (float64, error) {
	var total float64
	n := 0
	for i, d := range r.fleet.Devices() {
		if r.fleet.Draining(i) || r.leaveMs[i] >= 0 {
			continue
		}
		b, err := d.BacklogMs()
		if err != nil {
			return 0, err
		}
		total += b
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return total / float64(n), nil
}

// sample records the pool timeline point for this tick: backlog and the
// windowed utilization (round time executed during the last control
// period), the autoscaler's two signals.
func (r *run) sample(nowMs float64) {
	s := PoolSample{AtMs: nowMs}
	window := nowMs - r.lastTickMs
	var backlog, busyDelta float64
	for i, d := range r.fleet.Devices() {
		busy := d.BusyMs()
		delta := busy - r.prevBusy[i]
		r.prevBusy[i] = busy
		if r.leaveMs[i] >= 0 {
			continue
		}
		if r.fleet.Draining(i) {
			s.Draining++
			continue
		}
		s.Active++
		if b, err := d.BacklogMs(); err == nil {
			backlog += b
		}
		busyDelta += delta
	}
	if s.Active > 0 {
		s.BacklogMs = backlog / float64(s.Active)
		if window > 0 {
			s.UtilizationPct = 100 * busyDelta / (window * float64(s.Active))
		}
	}
	if s.Active > r.peak {
		r.peak = s.Active
	}
	r.lastTickMs = nowMs
	r.lastUtilPct = s.UtilizationPct
	r.timeline = append(r.timeline, s)
	if t := r.cfg.Fleet.Device.Tracer; t != nil {
		t.Emit(obs.Event{AtMs: nowMs, Kind: obs.KindPool, Request: obs.NoRequest,
			Metrics: map[string]float64{
				"active":          float64(s.Active),
				"draining":        float64(s.Draining),
				"backlog_ms":      s.BacklogMs,
				"utilization_pct": s.UtilizationPct,
			}})
	}
}

// autoscale applies the watermark/hysteresis policy to the two sampled
// signals — backlog and windowed utilization — growing or draining the
// pool.
func (r *run) autoscale(nowMs float64) error {
	p, err := r.pressure()
	if err != nil {
		return err
	}
	tripped := p > r.cfg.HighWatermarkMs || r.lastUtilPct > GrowUtilizationPct
	switch {
	case tripped:
		r.hiStreak++
		r.loStreak = 0
	case p < r.cfg.LowWatermarkMs && r.lastUtilPct < ShrinkUtilizationPct:
		r.loStreak++
		r.hiStreak = 0
	default:
		r.hiStreak, r.loStreak = 0, 0
	}
	// Pressure-window bookkeeping for the reaction-lag audit. The window
	// outlives the hysteresis streak (grows reset hiStreak but not the
	// window): it spans trip to backlog-cleared, the lag the controlled-
	// violation count is paid in.
	if tripped && !r.windowOpen {
		r.windowOpen, r.windowTripMs, r.windowTripTick = true, nowMs, r.tickNo
	} else if !tripped && r.windowOpen {
		r.closeWindow(nowMs)
	}
	if r.cooldown > 0 {
		r.cooldown--
		return nil
	}
	active := r.active()
	if r.hiStreak >= r.cfg.HysteresisTicks && active < r.cfg.MaxDevices {
		return r.grow(nowMs, p)
	}
	if r.loStreak >= r.cfg.HysteresisTicks && active > r.cfg.MinDevices {
		r.shrink(nowMs, p)
	}
	return nil
}

// closeWindow resolves the open pressure window at the first tick both
// autoscaling signals are back under their grow thresholds: every grow
// event inside the window gets the window's reaction lag, the audit
// records the (trip, clear) pair — its signed bias is minus the mean
// reaction lag in virtual ms — and the trace gets one "scale-lag" audit
// event.
func (r *run) closeWindow(nowMs float64) {
	lag := r.tickNo - r.windowTripTick
	for _, ei := range r.lagOpen {
		r.events[ei].ReactionTicks = lag
	}
	r.lagOpen = r.lagOpen[:0]
	r.windowOpen = false
	r.lagTotal += lag
	r.lagWindows++
	r.cfg.Fleet.Device.Audit.Observe("control", "scale", "reaction-lag", r.windowTripMs, nowMs)
	if t := r.cfg.Fleet.Device.Tracer; t != nil {
		t.Emit(obs.Event{AtMs: nowMs, Kind: obs.KindAudit, Request: obs.NoRequest,
			Detail: "scale-lag", Value: float64(lag),
			Metrics: map[string]float64{
				"trip_ms":   r.windowTripMs,
				"clear_ms":  nowMs,
				"lag_ticks": float64(lag),
			}})
	}
}

// grow adds the next platform in the growth cycle and, when it brings an
// unseen platform into the pool, seeds its schedule cache from the most
// solved donor platform — the transfer happens at the join instant, so the
// new device's first lookups hit transferred entries instead of missing.
func (r *run) grow(nowMs, pressureMs float64) error {
	platform := r.cfg.GrowPlatforms[r.growIdx%len(r.cfg.GrowPlatforms)]
	r.growIdx++
	cold := r.fleet.Cache(platform) == nil || r.fleet.Cache(platform).Len() == 0
	d, err := r.fleet.AddDevice(platform)
	if err != nil {
		return err
	}
	seeded := 0
	if cold {
		seeded, err = r.seedPlatform(platform, nowMs)
		if err != nil {
			return err
		}
	}
	r.joinMs = append(r.joinMs, nowMs)
	r.leaveMs = append(r.leaveMs, -1)
	r.served = append(r.served, nil)
	r.prevBusy = append(r.prevBusy, 0)
	r.hiStreak, r.cooldown = 0, r.cfg.CooldownTicks
	r.seeded += seeded
	if a := r.active(); a > r.peak {
		r.peak = a
	}
	r.logScale(ScaleEvent{
		AtMs: nowMs, Action: "grow", Device: d.Name(), Platform: d.Platform().Name,
		Active: r.active(), BacklogMs: pressureMs, Seeded: seeded,
	})
	if r.windowOpen {
		r.lagOpen = append(r.lagOpen, len(r.events)-1)
	}
	return nil
}

// seedPlatform transfers solved cache entries to a freshly joined
// platform: the donor is the platform group with the most solved mixes
// (ties to the lexicographically first name, via the sorted platform
// list), each entry re-costed on the joining platform's profile. Returns
// the number of transfers that beat the naive schedule.
func (r *run) seedPlatform(platform string, nowMs float64) (int, error) {
	if r.cfg.NoCacheSeeding || r.cfg.Fleet.PrivateCaches {
		return 0, nil
	}
	target := r.fleet.Cache(platform)
	if target == nil {
		return 0, nil
	}
	var donor *serve.Cache
	for _, name := range r.fleet.CachePlatforms() {
		if name == platform {
			continue
		}
		c := r.fleet.Cache(name)
		if c != nil && c.Len() > 0 && (donor == nil || c.Len() > donor.Len()) {
			donor = c
		}
	}
	if donor == nil {
		return 0, nil
	}
	return transferEntries(donor, target, nowMs)
}

// transferEntries re-costs every donor entry on the target platform.
func transferEntries(donor, target *serve.Cache, nowMs float64) (int, error) {
	n := 0
	snap := donor.Export()
	for _, es := range snap.Entries {
		s := assignToSchedule(es.Assign)
		improved, err := target.SeedFromSchedule(es.Networks, s, nowMs)
		if err != nil {
			return n, err
		}
		if improved {
			n++
		}
	}
	return n, nil
}

// migrate rebalances at most one tenant per tick: the tenant under the
// highest SLO pressure moves — but only if some other device genuinely
// scores better than staying put, with the candidate's service speed
// weighted by the tenant's recent volume so a slow-but-idle device never
// looks attractive for sustained traffic. One move per tick plus the
// per-tenant cooldown damps ping-ponging under overload, when every
// window looks bad and migration cannot help. Tenants are judged in
// sorted name order so the decision sequence is deterministic.
func (r *run) migrate(nowMs float64) {
	worst, worstRatio := "", 0.0
	for _, name := range r.names {
		w := r.tenants[name]
		if w.cooldown > 0 {
			w.cooldown--
			continue
		}
		if w.len() < min(MinWindow, r.cfg.SLOWindow) || w.lastSLOMs <= 0 {
			continue
		}
		if _, ok := r.table.Assigned(name); !ok {
			continue
		}
		ratio := w.p99() / (r.cfg.PressureP99Factor * w.lastSLOMs)
		if vr := w.violationRate() / PressureViolationRate; vr > ratio {
			ratio = vr
		}
		if ratio > 1 && ratio > worstRatio {
			worst, worstRatio = name, ratio
		}
	}
	if worst == "" {
		return
	}
	w := r.tenants[worst]
	cur, _ := r.table.Assigned(worst)
	target := r.bestDevice(worst, w.lastNetwork, nowMs, -1)
	if target < 0 || target == cur {
		return
	}
	devs := r.fleet.Devices()
	r.logMigration(Migration{
		AtMs: nowMs, Tenant: worst, From: devs[cur].Name(), To: devs[target].Name(),
		Reason: "slo-pressure", RollingP99Ms: w.p99(), ViolationRate: w.violationRate(),
	})
	r.table.assign(worst, target)
	w.reset()
	w.cooldown = MigrationCooldownTicks
}

// bestDevice scores the placeable devices for a tenant's sustained
// traffic: earliest start (device clock plus queued backlog), plus the
// network's standalone estimate weighted by SLOWindow requests — an idle
// device that serves the network 10x slower loses to a busy fast one once
// sustained rate matters — plus the committed load of the other tenants
// already assigned to the device, weighted identically. The committed
// term is what stops migration herding: without it every pressured tenant
// sees the same just-grown empty device as the best target and the whole
// pool moves there as a block. Returns the best device excluding
// `exclude` (pass -1 to consider the whole placeable pool, including the
// tenant's current device — migration then means "somewhere is genuinely
// better than staying"). -1 when no candidate exists.
func (r *run) bestDevice(tenant, network string, nowMs float64, exclude int) int {
	volume := float64(r.cfg.SLOWindow)
	best, bestScore := -1, math.Inf(1)
	devs := r.fleet.Devices()
	r.byDev = r.table.groupByDevice(len(devs), r.byDev)
	for i, d := range devs {
		if i == exclude || r.fleet.Draining(i) || r.leaveMs[i] >= 0 {
			continue
		}
		backlog, err := d.BacklogMs()
		if err != nil {
			continue
		}
		score := math.Max(d.ClockMs(), nowMs) + backlog
		if network != "" {
			if st, err := d.StandaloneMs(network); err == nil {
				score += volume * st
			}
		}
		for _, other := range r.byDev[i] {
			if other == tenant {
				continue
			}
			ow := r.tenants[other]
			if ow == nil || ow.lastNetwork == "" {
				continue
			}
			if st, err := d.StandaloneMs(ow.lastNetwork); err == nil {
				score += volume * st
			}
		}
		if best < 0 || score < bestScore || (score == bestScore && i < best) {
			best, bestScore = i, score
		}
	}
	return best
}

// shrink drains the placeable device with the least backlog (ties to the
// newest device) and force-migrates its sticky tenants.
func (r *run) shrink(nowMs, pressureMs float64) {
	victim, victimBacklog := -1, math.Inf(1)
	for i, d := range r.fleet.Devices() {
		if r.fleet.Draining(i) || r.leaveMs[i] >= 0 {
			continue
		}
		b, err := d.BacklogMs()
		if err != nil {
			continue
		}
		// Ties retire the newest device, keeping the long-lived pool core.
		if victim < 0 || b < victimBacklog || (b == victimBacklog && i > victim) {
			victim, victimBacklog = i, b
		}
	}
	if victim < 0 {
		return
	}
	if err := r.fleet.Drain(victim); err != nil {
		return
	}
	r.loStreak, r.cooldown = 0, r.cfg.CooldownTicks
	devs := r.fleet.Devices()
	r.logScale(ScaleEvent{
		AtMs: nowMs, Action: "drain", Device: devs[victim].Name(), Platform: devs[victim].Platform().Name,
		Active: r.active(), BacklogMs: pressureMs,
	})
	// Reassign the victim's sticky tenants so nothing new lands on it.
	for _, name := range r.table.tenantsOn(victim) {
		w := r.tenants[name]
		network := ""
		if w != nil {
			network = w.lastNetwork
		}
		target := r.bestDevice(name, network, nowMs, victim)
		if target < 0 {
			r.table.unassign(name)
			continue
		}
		r.logMigration(Migration{
			AtMs: nowMs, Tenant: name, From: devs[victim].Name(), To: devs[target].Name(),
			Reason: "drain",
		})
		r.table.assign(name, target)
		if w != nil {
			w.reset()
			w.cooldown = MigrationCooldownTicks
		}
	}
}

// summarize folds the run into the control summary.
func (r *run) summarize() *Summary {
	fs := r.fleet.Summarize()
	endMs := fs.DurationMs
	if r.windowOpen {
		// The run ended under pressure: the window never cleared, so its
		// grows report -1 and the trace's closing audit event carries a -1
		// lag instead of a clear time.
		for _, ei := range r.lagOpen {
			r.events[ei].ReactionTicks = -1
		}
		r.lagOpen = r.lagOpen[:0]
		r.windowOpen = false
		if t := r.cfg.Fleet.Device.Tracer; t != nil {
			t.Emit(obs.Event{AtMs: endMs, Kind: obs.KindAudit, Request: obs.NoRequest,
				Detail: "scale-lag", Value: -1,
				Metrics: map[string]float64{
					"trip_ms":   r.windowTripMs,
					"clear_ms":  -1,
					"lag_ticks": -1,
				}})
		}
	}
	sum := &Summary{
		Fleet:         fs,
		TickMs:        r.cfg.TickMs,
		Scale:         r.events,
		Migrations:    r.migrations,
		Timeline:      r.timeline,
		PeakDevices:   r.peak,
		FinalDevices:  r.active(),
		SeededEntries: r.seeded,
	}
	for i := range r.fleet.Devices() {
		leave := r.leaveMs[i]
		if leave < 0 {
			leave = endMs
		}
		if span := leave - r.joinMs[i]; span > 0 {
			sum.DeviceMs += span
		}
	}
	if reg := r.cfg.Fleet.Device.Metrics; reg != nil {
		r.fleet.FillMetrics(reg)
		reg.Set("control.ticks", float64(len(r.timeline)))
		reg.Set("control.scale_events", float64(len(r.events)))
		reg.Set("control.migrations", float64(len(r.migrations)))
		reg.Set("control.peak_devices", float64(r.peak))
		reg.Set("control.final_devices", float64(r.active()))
		reg.Set("control.seeded_entries", float64(r.seeded))
		reg.Set("control.device_ms", sum.DeviceMs)
		reg.Set("control.reaction_windows", float64(r.lagWindows))
		reg.Set("control.reaction_lag_ticks", float64(r.lagTotal))
	}
	return sum
}
