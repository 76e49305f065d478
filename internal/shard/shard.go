// Package shard is the region-scale control plane: K semi-isolated
// control planes — each a full control.Controller owning its own
// fleet.Fleet slice of the device pool and a partition of the tenants —
// stepped concurrently on goroutines and synchronized at deterministic
// gossip barriers pinned to the virtual tick clock.
//
// One control.Controller runs its event loop sequentially: at region
// scale that single goroutine is the throughput ceiling, even though the
// shards' work is almost entirely independent. The plane removes the
// ceiling the way SNIPPETS.md's PPI exemplar removes it for parallel
// solvers: semi-isolated parallel instances that periodically exchange
// solutions over a shared medium. Between barriers each shard advances
// its own controller — arrivals, control ticks, device rounds — with no
// shared mutable state whatsoever; at every barrier (every GossipEvery
// control ticks of virtual time) the shards exchange:
//
//   - Solved schedule-cache entries: each shard exports the entries its
//     platform caches solved since the last barrier (read from each
//     cache's export log, serve.Cache.SettledSince); the barrier merges
//     them deterministically (shard order, first exporter of a mix wins) and
//     every other shard imports them (serve.Cache.GossipSeed), so a mix
//     solved once anywhere warms every shard's cache. Imports are
//     idempotent — re-gossiped mixes and already-probed mixes never
//     reset solve progress — and imported entries that later serve a
//     real lookup count as warm hits. Gossip also partitions the solves
//     themselves: each mix key hashes to one owning shard
//     (fleet.Config.CacheSolveOwner); a non-owner that misses on a mix
//     serves its naive schedule, reports the mix as *wanted* at the
//     barrier, and the owner solves it once and gossips the settled
//     schedule back — so the whole region solves each distinct mix
//     exactly once, where K independent shards would solve it K times.
//
//   - Load reports driving tenant handoff: a shard whose mean queued
//     backlog per device exceeds the handoff watermark moves one
//     tenant's future arrivals to the least-loaded shard, so a whole
//     shard under SLO pressure sheds load instead of growing alone.
//
// The barrier is a mutex and condition variable: every shard submits its
// report and blocks in cond.Wait; the last arrival merges and commits
// the round under the mutex (every peer is
// parked in cond.Wait, so the committer may touch their drivers — the
// mutex hand-off establishes the happens-before edges) and broadcasts.
// Because barriers fire at fixed virtual times and everything exchanged
// is derived from deterministic per-shard state, the merged summary,
// metrics and trace are byte-identical run to run at any GOMAXPROCS —
// concurrency changes wall-clock only. A K=1 plane degenerates to
// exactly the global controller: same loop, same summary, to the byte.
package shard

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/serve"
)

// Defaults.
const (
	// DefaultGossipEveryTicks is the barrier period in control ticks.
	DefaultGossipEveryTicks = 4
	// DefaultHandoffFactor scales the control plane's high watermark into
	// the handoff threshold: a shard is handoff-pressured when its mean
	// backlog per device exceeds factor x the autoscaler's grow watermark
	// (pressure the shard's own elasticity has not absorbed).
	DefaultHandoffFactor = 3.0
	// DefaultHandoffCooldownRounds is the per-tenant pause between
	// handoffs, in barrier rounds.
	DefaultHandoffCooldownRounds = 2
)

// Config describes a sharded control plane. Control is the
// global-equivalent configuration — the full initial pool and the global
// device bounds — which the plane splits into K per-shard controllers;
// a single global controller built from the same Control is the exact
// baseline a sharded run is compared against.
type Config struct {
	// Control is the global control-plane configuration to partition. Its
	// Fleet.Devices is the full initial pool; MinDevices/MaxDevices bound
	// the global pool and are split across shards (earlier shards take
	// the remainder). The sinks in its device template
	// (Control.Fleet.Device's Tracer, Audit and Metrics) are ignored — the
	// plane gives each shard its own — so set the plane-level
	// Tracer/Audit/Metrics instead, which receive the deterministically
	// merged streams.
	Control control.Config

	// Shards is K, the number of shards (default 1). Each shard needs at
	// least one initial device.
	Shards int

	// GossipEveryTicks is the barrier period in control ticks (default
	// 4): shards synchronize at virtual times round x GossipEveryTicks x
	// TickMs.
	GossipEveryTicks int

	// NoGossip disables schedule-cache exchange; barriers still run (the
	// handoff path needs them).
	NoGossip bool

	// NoHandoff disables cross-shard tenant handoff.
	NoHandoff bool

	// HandoffBacklogMs is the shard-pressure threshold: mean queued
	// backlog per active device above which a shard hands one tenant to
	// the least-loaded shard (default DefaultHandoffFactor x the control
	// config's high watermark).
	HandoffBacklogMs float64

	// HandoffCooldownRounds is the per-tenant pause between handoffs in
	// barrier rounds (default 2).
	HandoffCooldownRounds int

	// TenantShard pins tenants to shard indices; unpinned tenants are
	// dealt round-robin over the trace's sorted tenant names.
	TenantShard map[string]int

	// DeviceShard pins initial devices — keyed by position in the
	// expanded initial pool (Fleet.Devices flattened in spec order) — to
	// shard indices; unpinned devices are dealt round-robin.
	DeviceShard map[int]int

	// Tracer, when set, receives every shard's events (device names
	// prefixed "s<shard>/") plus the plane's own gossip and handoff
	// events, merged in virtual-time order. Metrics receives each shard's
	// counters under "shard<k>." plus the plane totals under "shard.".
	// Audit receives the merged per-shard audits. All observational.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Audit   *obs.Audit
}

func (c Config) shards() int {
	if c.Shards <= 0 {
		return 1
	}
	return c.Shards
}

func (c Config) gossipTicks() int {
	if c.GossipEveryTicks <= 0 {
		return DefaultGossipEveryTicks
	}
	return c.GossipEveryTicks
}

// Handoff records one cross-shard tenant move: at a gossip barrier, the
// pressured From shard handed the tenant's future arrivals to To.
type Handoff struct {
	// Round is the barrier round; AtMs its virtual time.
	Round int     `json:"round"`
	AtMs  float64 `json:"at_ms"`
	// Tenant moved From -> To; Moved counts the future arrivals moved.
	Tenant string `json:"tenant"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Moved  int    `json:"moved"`
	// BacklogMs is the source shard's pressure signal at the decision;
	// Cause names the trigger ("backlog-pressure").
	BacklogMs float64 `json:"backlog_ms"`
	Cause     string  `json:"cause"`
}

// ShardSummary is one shard's slice of the run.
type ShardSummary struct {
	// Shard is the shard index; Tenants its initial tenant partition.
	Shard   int      `json:"shard"`
	Tenants []string `json:"tenants"`
	// GossipTxEntries and GossipRxEntries count solved cache entries this
	// shard exported to, and imported from, the gossip channel; WarmHits
	// counts imported entries that later served a real lookup hit (a
	// local solve gossip saved). SolveAssists counts wanted mixes this
	// shard solved as their owner on another shard's behalf; Deferred
	// counts mixes this shard encountered but left to their owner.
	GossipTxEntries int `json:"gossip_tx_entries"`
	GossipRxEntries int `json:"gossip_rx_entries"`
	WarmHits        int `json:"warm_hits"`
	SolveAssists    int `json:"solve_assists"`
	Deferred        int `json:"deferred"`
	// Control is the shard's own control summary, exactly as a standalone
	// controller over this shard's partition would report.
	Control *control.Summary `json:"control"`
}

// Summary is the merged outcome of a sharded run.
type Summary struct {
	// Shards is K; GossipEveryMs the barrier period; Rounds the number of
	// barrier rounds the run synchronized at.
	Shards        int     `json:"shards"`
	GossipEveryMs float64 `json:"gossip_every_ms"`
	Rounds        int     `json:"rounds"`

	PerShard []ShardSummary `json:"per_shard"`
	Handoffs []Handoff      `json:"handoffs"`

	// Plane-wide gossip totals (sums of the per-shard counters).
	GossipTxEntries int `json:"gossip_tx_entries"`
	GossipRxEntries int `json:"gossip_rx_entries"`
	WarmHits        int `json:"warm_hits"`
	SolveAssists    int `json:"solve_assists"`
	Deferred        int `json:"deferred"`

	// Tenants and Total aggregate every shard's completions, exactly as
	// one global summary would; SLOAttainmentPct is the merged
	// attainment.
	Tenants          []serve.TenantStats `json:"tenants"`
	Total            serve.TenantStats   `json:"total"`
	SLOAttainmentPct float64             `json:"slo_attainment_pct"`

	// DurationMs is the merged virtual makespan; DeviceMs sums the
	// shards' device-time; PeakDevices sums their peak pool sizes.
	DurationMs  float64 `json:"duration_ms"`
	DeviceMs    float64 `json:"device_ms"`
	PeakDevices int     `json:"peak_devices"`
}

// Plane is a sharded control plane. Like control.Controller it is
// stateless between Serve calls: each run partitions the trace, builds
// fresh per-shard controllers and fleets, and is independent of previous
// runs.
type Plane struct {
	cfg    Config
	global control.Config // resolved global-equivalent configuration
	parts  []control.Config
	units  int // expanded initial pool size
}

// New validates the configuration and partitions the device pool.
func New(cfg Config) (*Plane, error) {
	k := cfg.shards()
	// Resolve and validate the global-equivalent configuration first: the
	// per-shard split inherits its resolved defaults, and a configuration
	// the global controller rejects is rejected here identically.
	probe := cfg.Control
	probe.Fleet.Device.Tracer, probe.Fleet.Device.Audit, probe.Fleet.Device.Metrics = nil, nil, nil
	gc, err := control.New(probe)
	if err != nil {
		return nil, err
	}
	global := gc.Config()

	units := expandPool(global.Fleet.Devices)
	if len(units) < k {
		return nil, fmt.Errorf("shard: %d initial devices cannot populate %d shards", len(units), k)
	}
	owner := make([]int, len(units))
	for i := range units {
		owner[i] = i % k
	}
	for pos, s := range cfg.DeviceShard {
		if pos < 0 || pos >= len(units) {
			return nil, fmt.Errorf("shard: device position %d outside expanded pool of %d", pos, len(units))
		}
		if s < 0 || s >= k {
			return nil, fmt.Errorf("shard: device %d pinned to shard %d of %d", pos, s, k)
		}
		owner[pos] = s
	}
	perShard := make([][]fleet.DeviceSpec, k)
	for i, u := range units {
		perShard[owner[i]] = append(perShard[owner[i]], u)
	}
	for s, specs := range perShard {
		if len(specs) == 0 {
			return nil, fmt.Errorf("shard: shard %d owns no initial devices", s)
		}
	}

	// Split the global device bounds: each shard keeps its initial pool
	// and the global growth headroom is dealt round-robin, earlier shards
	// taking the remainder; the floor scales proportionally. A K=1 split
	// reproduces the global bounds exactly.
	headroom := global.MaxDevices - len(units)
	parts := make([]control.Config, k)
	for s := range parts {
		pc := global
		pc.Fleet.Devices = perShard[s]
		extra := headroom/k + boolInt(s < headroom%k)
		pc.MaxDevices = len(perShard[s]) + extra
		pc.MinDevices = global.MinDevices * len(perShard[s]) / len(units)
		if pc.MinDevices < 1 {
			pc.MinDevices = 1
		}
		if pc.MinDevices > len(perShard[s]) {
			pc.MinDevices = len(perShard[s])
		}
		if k > 1 && !cfg.NoGossip {
			// Partition background solving: each mix key hashes to one
			// owning shard; the others defer, report the mix as wanted at
			// the barrier, and adopt the owner's gossiped schedule. Without
			// gossip there is no channel to carry the solution back, so
			// every shard solves for itself; a K=1 plane must stay
			// byte-identical to the global controller, so it never defers.
			idx := s
			pc.Fleet.CacheSolveOwner = func(key string) bool {
				return mixOwner(key, k) == idx
			}
		}
		parts[s] = pc
	}
	for t, s := range cfg.TenantShard {
		if s < 0 || s >= k {
			return nil, fmt.Errorf("shard: tenant %q pinned to shard %d of %d", t, s, k)
		}
	}
	if cfg.HandoffBacklogMs <= 0 {
		cfg.HandoffBacklogMs = DefaultHandoffFactor * global.HighWatermarkMs
	}
	if math.IsNaN(cfg.HandoffBacklogMs) || math.IsInf(cfg.HandoffBacklogMs, 0) {
		return nil, fmt.Errorf("shard: HandoffBacklogMs is %g, want a finite value", cfg.HandoffBacklogMs)
	}
	if cfg.HandoffCooldownRounds <= 0 {
		cfg.HandoffCooldownRounds = DefaultHandoffCooldownRounds
	}
	return &Plane{cfg: cfg, global: global, parts: parts, units: len(units)}, nil
}

// expandPool flattens device specs into one unit spec per device.
func expandPool(specs []fleet.DeviceSpec) []fleet.DeviceSpec {
	var units []fleet.DeviceSpec
	for _, ds := range specs {
		n := ds.Count
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			units = append(units, fleet.DeviceSpec{Platform: ds.Platform, Count: 1, MixPolicy: ds.MixPolicy})
		}
	}
	return units
}

// mixOwner deterministically assigns a mix key to its owning shard: an
// FNV-1a hash of the cache key modulo K. Pure, so every shard (and the
// barrier committer) routes a key identically.
func mixOwner(key string, k int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(k))
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Global returns the resolved global-equivalent configuration — the
// single-controller baseline a sharded run compares against. Its device
// template carries no sinks: New drops Control's.
func (p *Plane) Global() control.Config { return p.global }

// PartitionTenants assigns the trace's tenants to shards: pinned tenants
// (Config.TenantShard) first, the rest dealt round-robin over the sorted
// tenant names. Exported so compare output and tests can show the
// partition the plane will use.
func (p *Plane) PartitionTenants(tr serve.Trace) (map[string]int, error) {
	ordinal, names, _ := tenantOrdinals(tr)
	shardOf, err := p.dealTenants(ordinal, names)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(names))
	for i, name := range names {
		out[name] = shardOf[i]
	}
	return out, nil
}

// tenantOrdinals numbers the trace's tenants in order of first arrival in
// the trace: ordinal maps a name to its number, names lists them by
// number, and ords holds each request's tenant number.
func tenantOrdinals(tr serve.Trace) (ordinal map[string]int32, names []string, ords []int32) {
	ordinal = map[string]int32{}
	ords = make([]int32, len(tr))
	for i := range tr {
		o, ok := ordinal[tr[i].Tenant]
		if !ok {
			o = int32(len(names))
			ordinal[tr[i].Tenant] = o
			names = append(names, tr[i].Tenant)
		}
		ords[i] = o
	}
	return ordinal, names, ords
}

// dealTenants returns each numbered tenant's shard (see PartitionTenants).
func (p *Plane) dealTenants(ordinal map[string]int32, names []string) ([]int, error) {
	k := p.cfg.shards()
	for t := range p.cfg.TenantShard {
		if _, ok := ordinal[t]; !ok {
			return nil, fmt.Errorf("shard: pinned tenant %q not in trace", t)
		}
	}
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	shardOf := make([]int, len(names))
	next := 0
	for _, name := range sorted {
		s, ok := p.cfg.TenantShard[name]
		if !ok {
			s = next % k
			next++
		}
		shardOf[ordinal[name]] = s
	}
	return shardOf, nil
}

// shardState is one shard's per-run state, owned by its goroutine between
// barriers; the barrier committer may touch drv while the owner is parked.
type shardState struct {
	idx    int
	drv    *control.Driver
	tracer *obs.Tracer
	audit  *obs.Audit
	reg    *obs.Registry

	tenants []string // initial partition (summary)
	// sent holds the entries this shard exported or received over gossip;
	// neither is exported again. cursor is, per platform, how far the
	// barriers have read its cache's export log (serve.Cache.SettledSince).
	sent    map[gossipID]bool
	cursor  map[string]int
	tx, rx  int
	assists int // wanted mixes this shard solved as their owner
	rounds  int
	sum     *control.Summary
	err     error
}

// gossipID names one cache entry plane-wide: its platform and cache key.
type gossipID struct{ platform, key string }

// Serve partitions the trace, runs the K shards concurrently to
// completion and returns the merged summary. The trace may be unsorted.
// The shards read the caller's trace in place and never write it: each
// request's shard is resolved once, and each shard's driver gets the
// indices of its requests in arrival order, 4 bytes per request.
func (p *Plane) Serve(tr serve.Trace) (*Summary, error) {
	if len(tr) == 0 {
		return nil, fmt.Errorf("shard: empty trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(tr) > math.MaxInt32 {
		return nil, fmt.Errorf("shard: %d requests exceed the drivers' int32 indices", len(tr))
	}
	k := p.cfg.shards()
	ordinal, names, ords := tenantOrdinals(tr)
	shardOf, err := p.dealTenants(ordinal, names)
	if err != nil {
		return nil, err
	}
	// Lay the shards' index lists out in one array, shard after shard,
	// each in trace order (a counting sort by shard). A sorted trace gives
	// lists in arrival order; any other is sorted per shard, stably, as
	// the global controller orders it.
	bounds := make([]int, k+1)
	for i, o := range ords {
		s := shardOf[o]
		ords[i] = int32(s)
		bounds[s+1]++
	}
	for s := 0; s < k; s++ {
		bounds[s+1] += bounds[s]
	}
	fill := append([]int(nil), bounds[:k]...)
	idx := make([]int32, len(tr))
	for i, s := range ords {
		idx[fill[s]] = int32(i)
		fill[s]++
	}
	sorted := slices.IsSortedFunc(tr, func(a, b serve.Request) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) })

	states := make([]*shardState, k)
	for s := 0; s < k; s++ {
		st := &shardState{idx: s, sent: map[gossipID]bool{}, cursor: map[string]int{}}
		pc := p.parts[s]
		if p.cfg.Tracer != nil {
			st.tracer = obs.NewTracer()
			pc.Fleet.Device.Tracer = st.tracer
		}
		if p.cfg.Audit != nil {
			st.audit = obs.NewAudit()
			pc.Fleet.Device.Audit = st.audit
		}
		if p.cfg.Metrics != nil {
			st.reg = obs.NewRegistry()
			pc.Fleet.Device.Metrics = st.reg
		}
		ctrl, err := control.New(pc)
		if err != nil {
			return nil, err
		}
		order := idx[bounds[s]:bounds[s+1]:bounds[s+1]]
		if !sorted {
			control.SortArrivals(tr, order)
		}
		st.drv, err = ctrl.StartIndexed(tr, order)
		if err != nil {
			return nil, err
		}
		for i, name := range names {
			if shardOf[i] == s {
				st.tenants = append(st.tenants, name)
			}
		}
		sort.Strings(st.tenants)
		states[s] = st
	}

	h := newHub(p, states)
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		//detlint:allow baregoroutine shard stepper: shards advance between hub condvar barrier rounds pinned to the virtual tick clock; merge after wg.Wait is in shard order
		go func(st *shardState) {
			defer wg.Done()
			p.runShard(h, st)
		}(st)
	}
	wg.Wait()
	for _, st := range states {
		if st.err != nil {
			return nil, st.err
		}
	}
	return p.merge(states, h), nil
}

// periodMs is the barrier period in virtual milliseconds.
func (p *Plane) periodMs() float64 {
	return float64(p.cfg.gossipTicks()) * p.global.TickMs
}

// runShard drives one shard: advance to the next barrier, exchange, apply
// imports, repeat until the committed round declares the whole plane done.
func (p *Plane) runShard(h *hub, st *shardState) {
	period := p.periodMs()
	for round := 1; ; round++ {
		barrier := float64(round) * period
		remaining, err := st.drv.Advance(barrier)
		if err != nil {
			st.err = err
			h.fail(err)
			return
		}
		rep, repErr := barrierReport(p, st, remaining)
		if repErr != nil {
			st.err = repErr
			h.fail(repErr)
			return
		}
		res, err := h.sync(st.idx, rep)
		if err != nil {
			st.err = err
			return
		}
		st.rounds = round
		rx := p.applyImports(st, res.merged, barrier)
		assisted := 0
		if !res.done {
			// Solve the round's wanted mixes this shard owns; the settled
			// schedules ride the next barrier's exports back to the shards
			// that wanted them. Skipped on the final round: a want with no
			// arrivals left behind it has nothing to serve.
			if assisted, err = p.applyAssists(st, res.wants, barrier); err != nil {
				st.err = err
				h.fail(err)
				return
			}
		}
		st.emitGossip(barrier, round, len(rep.exports), rx, assisted, rep.backlogMs)
		st.emitHandoffs(res.handoffs)
		if res.done {
			break
		}
	}
	// The committed round saw every shard idle with no future arrivals
	// and moved nothing, so the runs are complete; summarize outside the
	// barrier (purely local).
	st.sum = st.drv.Finish()
}

// barrierReport builds each barrier's report: buildReport, held in a
// variable so the package's tests can check every barrier's exports.
var barrierReport = (*Plane).buildReport

// buildReport is what this shard pushes into the barrier: the cache
// entries that settled since its last barrier and the autoscaling
// pressure signal. A pressured shard's handoff candidates are counted by
// the committer (hub.handoffsLocked), not here.
//
// The exports are read from each cache's export log, from this shard's
// cursor on (serve.Cache.SettledSince), not from a full snapshot. They are
// exactly the entries a fresh Export marks solved that the shard has not
// yet sent or received, in Export's order: platform by platform, sorted by
// cache key. A deferred stub is never exported unsolved: it enters the
// log when its owner's schedule settles it. An export carries the entry's
// networks and Best rows themselves, uncloned: receivers only read them
// (GossipSeed remaps the rows into its own schedule).
func (p *Plane) buildReport(st *shardState, remaining bool) (*report, error) {
	rep := &report{done: !remaining}
	backlog, err := st.drv.PressureMs()
	if err != nil {
		return nil, err
	}
	rep.backlogMs = backlog
	if !p.cfg.NoGossip {
		f := st.drv.Fleet()
		for _, platform := range f.CachePlatforms() {
			cache := f.Cache(platform)
			if cache == nil {
				continue
			}
			settled, end := cache.SettledSince(st.cursor[platform])
			st.cursor[platform] = end
			from := len(rep.exports)
			for _, e := range settled {
				id := gossipID{platform, e.Key}
				if st.sent[id] {
					continue
				}
				st.sent[id] = true
				rep.exports = append(rep.exports, entryExport{
					Platform: platform,
					Key:      e.Key,
					Networks: e.Networks,
					Assign:   e.Best().Assign,
					Origin:   st.idx,
				})
			}
			slices.SortFunc(rep.exports[from:], func(a, b entryExport) int { return strings.Compare(a.Key, b.Key) })
			for _, w := range cache.Wanted() {
				rep.wants = append(rep.wants, wantExport{
					Platform: platform,
					Key:      w.Key,
					Networks: w.Networks,
					Origin:   st.idx,
				})
			}
		}
		st.tx += len(rep.exports)
	}
	return rep, nil
}

// applyAssists solves the committed round's wanted mixes that route to
// this shard, on this shard's own caches: EnsureSolved characterizes and
// solves each mix (promoting a live probe if one exists) without touching
// the hit/miss counters, and the next barrier's export carries the
// settled schedule to every shard that wanted it.
func (p *Plane) applyAssists(st *shardState, wants []wantExport, barrier float64) (int, error) {
	n := 0
	f := st.drv.Fleet()
	for _, w := range wants {
		if w.Owner != st.idx {
			continue
		}
		cache := f.Cache(w.Platform)
		if cache == nil {
			continue
		}
		ran, err := cache.EnsureSolved(w.Networks, barrier)
		if err != nil {
			return n, fmt.Errorf("shard: assist solve %q on %s: %w", w.Key, w.Platform, err)
		}
		if ran {
			n++
		}
	}
	st.assists += n
	return n, nil
}

// applyImports seeds the merged round's entries into this shard's caches.
// Own exports and platforms the shard does not serve are skipped; the
// cache-level GossipSeed handles re-gossiped and already-probed mixes
// idempotently. Received mixes are marked exported so the shard never
// re-gossips what the channel already carried.
func (p *Plane) applyImports(st *shardState, merged []entryExport, barrier float64) int {
	rx := 0
	f := st.drv.Fleet()
	for _, e := range merged {
		if e.Origin == st.idx {
			continue
		}
		cache := f.Cache(e.Platform)
		if cache == nil {
			continue
		}
		id := gossipID{e.Platform, e.Key}
		if st.sent[id] {
			continue
		}
		st.sent[id] = true
		added, err := cache.GossipSeed(e.Networks, e.schedule(), barrier)
		if err != nil {
			// An import that cannot characterize locally is dropped, not
			// fatal: the shard simply solves the mix itself on first use.
			continue
		}
		if added {
			rx++
		}
	}
	st.rx += rx
	return rx
}

// emitGossip mirrors one barrier exchange into the shard's trace.
func (st *shardState) emitGossip(barrier float64, round, tx, rx, assists int, backlogMs float64) {
	if st.tracer == nil {
		return
	}
	st.tracer.Emit(obs.Event{AtMs: barrier, Kind: obs.KindGossip, Request: obs.NoRequest,
		Detail: fmt.Sprintf("s%d round %d", st.idx, round), Value: float64(rx),
		Metrics: map[string]float64{
			"shard":      float64(st.idx),
			"round":      float64(round),
			"tx_entries": float64(tx),
			"rx_entries": float64(rx),
			"assists":    float64(assists),
			"backlog_ms": backlogMs,
		}})
}

// emitHandoffs mirrors the committed round's handoffs that involve this
// shard into its trace (the source shard records the move).
func (st *shardState) emitHandoffs(handoffs []Handoff) {
	if st.tracer == nil {
		return
	}
	for _, ho := range handoffs {
		if ho.From != st.idx {
			continue
		}
		st.tracer.Emit(obs.Event{AtMs: ho.AtMs, Kind: obs.KindHandoff, Tenant: ho.Tenant,
			Request: obs.NoRequest,
			Detail:  fmt.Sprintf("s%d->s%d (%s)", ho.From, ho.To, ho.Cause),
			Value:   ho.BacklogMs,
			Metrics: map[string]float64{
				"from":  float64(ho.From),
				"to":    float64(ho.To),
				"moved": float64(ho.Moved),
			}})
	}
}

// merge folds the finished shards into the plane summary and the
// plane-level observability sinks, in shard order throughout, so the
// merged artifacts are deterministic. The plane rows merge every shard's
// device tallies, shard by shard in pool order, exactly as one summary
// over the devices' completions in that order would (sketched under the
// template's SketchMetrics; see serve.SummarizeTallies).
func (p *Plane) merge(states []*shardState, h *hub) *Summary {
	sum := &Summary{
		Shards:        p.cfg.shards(),
		GossipEveryMs: p.periodMs(),
		Handoffs:      h.log,
	}
	var tallies []*serve.Tally
	var pools []string
	for _, st := range states {
		ss := ShardSummary{
			Shard:           st.idx,
			Tenants:         st.tenants,
			GossipTxEntries: st.tx,
			GossipRxEntries: st.rx,
			SolveAssists:    st.assists,
			Control:         st.sum,
		}
		f := st.drv.Fleet()
		for _, platform := range f.CachePlatforms() {
			if c := f.Cache(platform); c != nil {
				ss.WarmHits += c.WarmHits
				ss.Deferred += c.Deferred
			}
		}
		for _, d := range f.Devices() {
			tallies = append(tallies, d.Tally())
		}
		pools = append(pools, st.sum.Fleet.Pool)
		if st.rounds > sum.Rounds {
			sum.Rounds = st.rounds
		}
		sum.GossipTxEntries += st.tx
		sum.GossipRxEntries += st.rx
		sum.WarmHits += ss.WarmHits
		sum.SolveAssists += ss.SolveAssists
		sum.Deferred += ss.Deferred
		sum.DeviceMs += st.sum.DeviceMs
		sum.PeakDevices += st.sum.PeakDevices
		sum.PerShard = append(sum.PerShard, ss)
	}
	dt := p.global.Fleet.Device
	merged := serve.SummarizeTallies(tallies, dt.Policy, strings.Join(pools, "|"), dt.Objective)
	sum.Tenants = merged.Tenants
	sum.Total = merged.Total
	sum.SLOAttainmentPct = merged.Total.SLOAttainmentPct()
	sum.DurationMs = merged.DurationMs

	if p.cfg.Tracer != nil {
		tracers := make([]*obs.Tracer, len(states))
		for i, st := range states {
			t := obs.NewTracer()
			for _, e := range st.tracer.Events() {
				if e.Device != "" {
					e.Device = fmt.Sprintf("s%d/%s", st.idx, e.Device)
				}
				t.Emit(e)
			}
			tracers[i] = t
		}
		for _, e := range obs.MergeTracers(tracers...).Events() {
			p.cfg.Tracer.Emit(e)
		}
	}
	if p.cfg.Audit != nil {
		for _, st := range states {
			p.cfg.Audit.Merge(st.audit)
		}
	}
	if reg := p.cfg.Metrics; reg != nil {
		for _, st := range states {
			prefix := fmt.Sprintf("shard%d.", st.idx)
			for _, m := range st.reg.Snapshot() {
				reg.Set(prefix+m.Name, m.Value)
			}
		}
		reg.Set("shard.count", float64(sum.Shards))
		reg.Set("shard.gossip_rounds", float64(sum.Rounds))
		reg.Set("shard.gossip_entries_tx", float64(sum.GossipTxEntries))
		reg.Set("shard.gossip_entries_rx", float64(sum.GossipRxEntries))
		reg.Set("shard.warm_hits", float64(sum.WarmHits))
		reg.Set("shard.solve_assists", float64(sum.SolveAssists))
		reg.Set("shard.deferred", float64(sum.Deferred))
		reg.Set("shard.handoffs", float64(len(sum.Handoffs)))
	}
	return sum
}
