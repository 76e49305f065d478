// Schedule cache: solved schedules keyed by the active workload mix (the
// multiset of co-running networks plus the objective), so repeated mixes
// reuse characterization and solving work. An unseen mix is served on the
// best naive schedule immediately while the anytime solver's incumbent
// stream — recorded at miss time, replayed against the virtual clock —
// upgrades the entry in the background, as D-HaX-CoNN deploys improved
// incumbents while the workload runs.
package serve

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"haxconn/internal/baselines"
	"haxconn/internal/core"
	"haxconn/internal/nn"
	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
	"haxconn/internal/solver"
)

// CacheConfig controls a schedule cache.
type CacheConfig struct {
	Platform  *soc.Platform
	Objective schedule.Objective
	// Solve runs the anytime solver on every miss; false caches only the
	// naive schedule (the NaiveGPUOnly policy needs no solving).
	Solve bool
	// SolverTimeScale stretches virtual solver time onto the serving
	// timeline (see Config.SolverTimeScale). 1 means unscaled. Virtual
	// solver time is the background solver's deterministic node counter
	// at solver.NodesPerMs: an incumbent found after N nodes deploys
	// N/NodesPerMs scaled milliseconds after the miss.
	SolverTimeScale float64
	// SolveOwner, when set, partitions the background-solving work across
	// cooperating caches (the sharded control plane's deterministic solve
	// ownership): a miss or probe on a mix this cache does not own is
	// characterized and served on its naive schedule, but *not* solved —
	// the key is recorded as wanted (Wanted) and the owning shard's settled
	// schedule is expected over the gossip channel, which upgrades the
	// deferred entry in place (GossipSeed). Nil means the cache owns every
	// mix.
	SolveOwner func(mixKey string) bool
}

// solveKnobs is the part of a CacheConfig that a runtime's Config
// derives (Config.CacheConfig): a runtime binds a shared cache only when
// the two agree on all of it.
type solveKnobs struct {
	Platform        string
	Objective       schedule.Objective
	Solve           bool
	SolverTimeScale float64
}

func (c CacheConfig) solving() solveKnobs {
	return solveKnobs{c.Platform.Name, c.Objective, c.Solve, c.SolverTimeScale}
}

func (c CacheConfig) scale() float64 {
	if c.SolverTimeScale <= 0 {
		return 1
	}
	return c.SolverTimeScale
}

// Cache maps workload mixes to solved schedules and counts its own
// effectiveness: Hits and Misses count Lookup outcomes, Upgrades counts
// deployments that advanced to a newer solver incumbent.
//
// Besides the dispatched entries, the cache keeps scoring probes: mixes
// characterized — and, in a solving cache, speculatively solved — for
// contention-predicted mix forming (Probe) but never dispatched. Probes
// are never counted and never persisted; when a probed mix is finally
// dispatched, Lookup promotes the probe — characterization and solve
// progress included — so scoring work is never repeated. A mix whose
// characterization fails is negative-cached: the failure is returned on
// every re-probe without repeating the prepare. A mix naming a network
// outside the zoo fails at the name's index lookup, before any of that:
// it is never characterized and takes no slot.
//
// The cache also logs each live entry once, when it becomes exportable
// (the entries Export marks solved): inserted solved, or settled in place
// by GossipSeed, EnsureSolved or Rewind. A reader that keeps a count of
// what it has read (SettledSince) sees what changed without a full
// Export; the sharded plane's gossip barriers read it that way.
//
// Mixes are found by zoo index, not by name: a canonical mix is its
// networks' sorted nn.Index tuple, and a trie over those tuples numbers
// each mix the first time it is seen. The number is the mix's slot, which
// holds its live entry, its scoring probe and its memoized failure. The
// dispatcher and the mix scorer hand the cache index tuples directly; the
// []string methods resolve names first. Names and the string key live on
// in each Entry, built once per mix, for traces, Export, gossip and
// SolveOwner.
type Cache struct {
	cfg CacheConfig
	// slots and kids are the mix trie. Node n stands for the tuple spelled
	// by the path to it, and slots[n] is that tuple's mix slot. A node's
	// children, by next index, fill one child array of nn.Count() node
	// numbers in kids (0 = no child: node 0 is the root, nobody's child);
	// a node gets its array with its first child, so a leaf costs none.
	// Both slabs grow as mixes are first seen and never shrink.
	slots []mixSlot
	kids  []int32
	// live and probes count the slots holding a live entry and a scoring
	// probe.
	live, probes int
	tracer       *obs.Tracer
	name         string

	Hits     int
	Misses   int
	Upgrades int
	// Probes counts fresh scoring characterizations (memoized re-probes
	// excluded); Promotions counts probes a Lookup turned into live
	// entries — the measure of how often speculative scoring work became
	// serving value.
	Probes     int
	Promotions int
	// WarmHits counts gossip-seeded entries (GossipSeed) that produced at
	// least one real Lookup hit — each one is a local characterize+solve
	// this cache skipped because another shard had already done the work.
	// Counted once per entry, not per hit.
	WarmHits int
	// Deferred counts misses and probes whose solve was skipped because
	// SolveOwner assigned the mix to another cache; Assists counts solves
	// this cache ran on behalf of another shard's wanted mix
	// (EnsureSolved).
	Deferred int
	Assists  int

	// wanted lists the deferred mixes still awaiting the owner's gossiped
	// schedule, in the order they were deferred, each once (its slot is
	// marked wanted).
	wanted []wantedMix

	// exportLog lists live entries in the order they became exportable,
	// each once (see SettledSince).
	exportLog []*Entry
}

// mixSlot is what the cache holds for one mix: the live (dispatched)
// entry, the scoring probe and the memoized probe failure, each nil when
// absent. kids locates the trie node's child array: it starts at
// Cache.kids[(kids-1)*nn.Count()], and kids is 0 while the node has no
// child. wanted marks a mix listed in Cache.wanted.
type mixSlot struct {
	live, probe *Entry
	err         error
	kids        int32
	wanted      bool
}

// wantedMix is one deferred mix: its Want and its slot.
type wantedMix struct {
	Want
	slot int32
}

// AttachTracer wires cache-internal events (probe builds, probe
// promotions, background solves) into a trace. Purely observational.
func (c *Cache) AttachTracer(t *obs.Tracer) { c.tracer = t }

// deviceLabel is the track a cache's events and metrics attribute to: the
// owning runtime's (possibly per-comparison-leg) name for a private
// cache, the platform name for a platform-shared cache.
func (c *Cache) deviceLabel() string {
	if c.name != "" {
		return c.name
	}
	return c.cfg.Platform.Name
}

func (c *Cache) trace(e obs.Event) {
	if c.tracer == nil {
		return
	}
	e.Device = c.deviceLabel()
	c.tracer.Emit(e)
}

// Entry is one cached mix: its characterization, the immediate naive
// schedule, and the background solver's incumbent history.
type Entry struct {
	// Key is the cache key (mix + objective).
	Key string
	// Networks is the canonical (sorted) workload mix.
	Networks []string
	// Prob and Profile are the mix's problem statement and
	// characterization tables, reused by every round serving this mix.
	Prob    *schedule.Problem
	Profile *schedule.Profile
	// Naive is the single-accelerator greedy schedule, deployable the
	// instant the miss occurs.
	Naive *schedule.Schedule
	// Any is the background solver's run — its incumbent stream drives
	// upgrades (nil when the cache does not solve).
	Any *solver.Anytime
	// Seeded is a schedule the entry was born with instead of discovered:
	// either transferred from another platform's solved entry and re-costed
	// on this platform (SeedFromSchedule), or restored from a persisted
	// snapshot (Import). When the entry has no incumbent stream, Use
	// deploys it in place of the naive schedule.
	Seeded *schedule.Schedule
	// CreatedMs is the virtual time of the miss — the background solve
	// starts then.
	CreatedMs float64

	cache     *Cache
	slot      int32 // the mix's slot in the cache's trie
	lastSched *schedule.Schedule
	evals     map[string]*schedule.Eval // Evaluate's memo, by schedule key
	// ownEvals holds the same evaluations as evals for the entry's own
	// schedules (see owns), found by identity: a memo hit on a deployed or
	// scored schedule is a pointer comparison, not a key build and hash.
	ownEvals  []ownEval
	predEvals map[string]*schedule.Eval // model-arbiter evaluations (Predict)
	// settled marks an entry carried across a timeline rewind: its solve
	// finished in a previous run, so it deploys its best incumbent
	// immediately rather than replaying the stream against a clock it
	// predates.
	settled bool
	// gossiped marks an entry created by GossipSeed — a schedule another
	// shard solved, imported over the gossip channel. The first Lookup hit
	// on such an entry counts as a warm hit (see Cache.WarmHits) and
	// clears the mark.
	gossiped bool
	// logged marks an entry already in the cache's export log.
	logged bool
}

// NewCache builds an empty cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("serve: cache needs a platform")
	}
	return &Cache{cfg: cfg}, nil
}

// errEmptyMix is the error of every cache method handed no networks.
var errEmptyMix = fmt.Errorf("serve: empty workload mix")

// errUnknownNetwork is the error of every runtime estimate and cache method
// handed a network outside the zoo, returned at the name's index lookup.
// Admission rejects a request for one, so only placement signals,
// snapshots and gossip can name one; placement asks every device about
// every arrival, and one shared error costs it nothing.
var errUnknownNetwork = fmt.Errorf("serve: unknown network")

// slotOf returns the slot of a canonical mix, given as its sorted zoo
// index tuple, adding the trie nodes of a mix seen the first time.
func (c *Cache) slotOf(mix []int) int32 {
	z := nn.Count()
	if c.slots == nil {
		// Room for a small cache's trie from the start: the root and a
		// handful of mixes under a few child arrays.
		c.slots = make([]mixSlot, 1, 8)
		c.kids = make([]int32, 0, 4*z)
	}
	n := int32(0)
	for _, i := range mix {
		if c.slots[n].kids == 0 {
			c.kids = append(c.kids, make([]int32, z)...)
			c.slots[n].kids = int32(len(c.kids) / z)
		}
		k := int(c.slots[n].kids-1)*z + i
		if c.kids[k] == 0 {
			c.slots = append(c.slots, mixSlot{})
			c.kids[k] = int32(len(c.slots) - 1)
		}
		n = c.kids[k]
	}
	return n
}

// mixBufLen sizes the stack buffers index tuples are resolved into; a
// longer mix spills to the heap, which costs an allocation but not
// correctness.
const mixBufLen = 8

// resolve writes the canonical index tuple of a workload mix into buf,
// sorted. It fails on an empty mix and on a network outside the zoo.
func resolve(buf []int, networks []string) ([]int, error) {
	if len(networks) == 0 {
		return nil, errEmptyMix
	}
	mix := buf[:0]
	for _, name := range networks {
		i, ok := nn.Index(name)
		if !ok {
			return nil, errUnknownNetwork
		}
		mix = append(mix, i)
	}
	slices.Sort(mix)
	return mix, nil
}

// exportable reports whether Export marks a live entry solved: its solve
// ran, it settled, or the cache does not solve. An exportable entry stays
// exportable: nothing clears Any or settled.
func (c *Cache) exportable(e *Entry) bool { return e.Any != nil || e.settled || !c.cfg.Solve }

// put registers e as the live entry of its slot.
func (c *Cache) put(e *Entry) {
	c.slots[e.slot].live = e
	c.live++
	c.logExportable(e)
}

// promote removes the scoring probe of slot s, counts and traces its
// promotion, and returns it; nil when the slot holds no probe. The caller
// registers the probe as the live entry (put).
func (c *Cache) promote(s int32, nowMs float64) *Entry {
	e := c.slots[s].probe
	if e == nil {
		return nil
	}
	c.slots[s].probe = nil
	c.probes--
	c.Promotions++
	c.trace(obs.Event{AtMs: nowMs, Kind: obs.KindCachePromote, Request: obs.NoRequest, Detail: e.Key})
	return e
}

// logExportable appends a live entry to the export log the first time it
// is exportable. Every change that makes an entry live (put) or settles a
// live one in place calls it.
func (c *Cache) logExportable(e *Entry) {
	if !e.logged && c.exportable(e) {
		e.logged = true
		c.exportLog = append(c.exportLog, e)
	}
}

// SettledSince returns the live entries that became exportable — the
// entries Export marks solved — after the first from did, and the count
// to pass next time, so a reader that keeps its count sees each
// exportable entry exactly once. The entries and their schedules are the
// cache's own: callers must not modify them.
func (c *Cache) SettledSince(from int) ([]*Entry, int) {
	n := len(c.exportLog)
	return c.exportLog[from:n:n], n
}

// owned reports whether this cache solves the given mix key itself (true
// without a SolveOwner partition).
func (c *Cache) owned(key string) bool {
	return c.cfg.SolveOwner == nil || c.cfg.SolveOwner(key)
}

// deferSolve records a mix whose solve belongs to another cache in the
// ownership partition: the entry keeps serving its naive schedule and the
// mix stays wanted until the owner's gossiped schedule settles it.
func (c *Cache) deferSolve(e *Entry) {
	if c.slots[e.slot].wanted {
		return
	}
	c.Deferred++
	c.slots[e.slot].wanted = true
	c.wanted = append(c.wanted, wantedMix{Want{Key: e.Key, Networks: slices.Clone(e.Networks)}, e.slot})
}

// Want is one deferred mix: Key is the cache key — the exact string the
// SolveOwner predicate saw, so the plane routes the want to the same
// owner — and Networks the canonical mix to hand EnsureSolved.
type Want struct {
	Key      string
	Networks []string
}

// Wanted lists the mixes whose solves this cache deferred to their owner
// and that are still unsolved, sorted by key — the "wants" half of a
// gossip round's report. Mixes settled since (the owner's schedule
// arrived, or a local probe solved them) are dropped.
func (c *Cache) Wanted() []Want {
	keep := c.wanted[:0]
	out := make([]Want, 0, len(c.wanted))
	for _, w := range c.wanted {
		if e := c.slots[w.slot].live; e != nil && (e.Any != nil || e.settled) {
			c.slots[w.slot].wanted = false
			continue
		}
		keep = append(keep, w)
		out = append(out, w.Want)
	}
	c.wanted = keep
	slices.SortFunc(out, func(a, b Want) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// EnsureSolved solves a mix this cache owns on behalf of another shard
// that wants it: a live solved (or settled) entry is a no-op; a scoring
// probe is promoted exactly as a Lookup would promote it; an unseen mix is
// characterized and solved, anchored at nowMs, and registered — without
// touching the hit/miss counters, since no local request asked for it. The
// boolean reports whether a solve (or promotion) actually ran. The next
// gossip round exports the settled result to the shards that wanted it.
func (c *Cache) EnsureSolved(networks []string, nowMs float64) (bool, error) {
	var buf [mixBufLen]int
	mix, err := resolve(buf[:0], networks)
	if err != nil {
		return false, err
	}
	s := c.slotOf(mix)
	if e := c.slots[s].live; e != nil {
		if e.Any != nil || e.settled {
			return false, nil
		}
		// A deferred stub on the owner itself cannot happen (owners solve
		// their own misses), but solve in place defensively.
		e.Any, err = core.AnytimeFromProfile(c.request(e.Networks), e.Prob, e.Profile)
		if err != nil {
			return false, err
		}
		c.logExportable(e)
		c.Assists++
		c.trace(obs.Event{AtMs: nowMs, Kind: obs.KindCacheSolve, Request: obs.NoRequest,
			Detail: e.Key, Value: float64(e.solverNodes())})
		return true, nil
	}
	if e := c.promote(s, nowMs); e != nil {
		c.put(e)
		return true, nil
	}
	e, err := c.build(s, mix, nowMs)
	if err != nil {
		return false, err
	}
	if c.cfg.Solve {
		e.Any, err = core.AnytimeFromProfile(c.request(e.Networks), e.Prob, e.Profile)
		if err != nil {
			return false, err
		}
		c.trace(obs.Event{AtMs: nowMs, Kind: obs.KindCacheSolve, Request: obs.NoRequest,
			Detail: e.Key, Value: float64(e.solverNodes())})
	}
	c.Assists++
	c.put(e)
	return true, nil
}

// Len returns the number of cached mixes.
func (c *Cache) Len() int { return c.live }

// Platform returns the SoC the cache characterizes and solves for.
func (c *Cache) Platform() *soc.Platform { return c.cfg.Platform }

// Rewind re-anchors the cache to the start of a fresh virtual timeline and
// zeroes the effectiveness counters. Entries stay warm but become settled:
// their background solves completed in the previous run, so they deploy
// their best incumbent immediately instead of replaying the stream against
// timestamps from a clock that no longer exists. Runtime.Reset rewinds a
// private cache automatically; a fleet rewinds each shared cache once per
// run.
func (c *Cache) Rewind() {
	from := len(c.exportLog)
	for i := range c.slots {
		if e := c.slots[i].live; e != nil {
			e.CreatedMs = 0
			e.settled = true
			e.lastSched = nil
			c.logExportable(e)
		}
		// Probes settle too: their speculative solves finished with the old
		// timeline, so scoring (and promotion) in the new run deploys their
		// best incumbent rather than replaying against a dead clock.
		if e := c.slots[i].probe; e != nil {
			e.CreatedMs = 0
			e.settled = true
			e.lastSched = nil
		}
		c.slots[i].wanted = false
	}
	// The stubs just settled were logged in slot order; sort them by key,
	// as Export orders entries.
	slices.SortFunc(c.exportLog[from:], func(a, b *Entry) int { return strings.Compare(a.Key, b.Key) })
	c.Hits, c.Misses, c.Upgrades = 0, 0, 0
	c.Probes, c.Promotions, c.WarmHits = 0, 0, 0
	c.Deferred, c.Assists = 0, 0
	c.wanted = c.wanted[:0]
}

// key returns the cache key of a canonical (sorted) list of networks: the
// networks joined by "+", then "|" and the objective. Export persists
// this format and gossip ships it.
func (c *Cache) key(canon []string) string {
	var buf [keyBufLen]byte
	b := buf[:0]
	for i, n := range canon {
		if i > 0 {
			b = append(b, '+')
		}
		b = append(b, n...)
	}
	b = append(b, '|')
	return string(append(b, c.cfg.Objective.String()...))
}

// Lookup returns the entry for a workload mix, solving it on a miss. The
// boolean reports whether the mix was already cached. nowMs timestamps a
// miss so the incumbent replay is anchored to the virtual clock.
func (c *Cache) Lookup(networks []string, nowMs float64) (*Entry, bool, error) {
	var buf [mixBufLen]int
	mix, err := resolve(buf[:0], networks)
	if err != nil {
		if err != errEmptyMix {
			c.Misses++ // a name outside the zoo is a miss
		}
		return nil, false, err
	}
	return c.lookup(mix, nowMs)
}

// lookup is Lookup on a canonical mix given as its sorted zoo index
// tuple, the form the dispatcher keeps its batch in.
func (c *Cache) lookup(mix []int, nowMs float64) (*Entry, bool, error) {
	s := c.slotOf(mix)
	if e := c.slots[s].live; e != nil {
		c.Hits++
		if e.gossiped {
			e.gossiped = false
			c.WarmHits++
		}
		return e, true, nil
	}
	c.Misses++
	// A scoring probe already characterized (and solved) this mix: promote
	// it instead of re-preparing. The probe keeps its CreatedMs — its
	// background solve genuinely started when the mix-forming scorer first
	// considered the mix — so a mix probed early deploys further down its
	// incumbent stream the moment it is finally dispatched. Speculative
	// solving is exactly what turns scoring cost into serving value.
	e := c.promote(s, nowMs)
	if e == nil {
		var err error
		if e, err = c.build(s, mix, nowMs); err != nil {
			return nil, false, err
		}
	}
	if c.cfg.Solve && e.Any == nil && !e.settled {
		if c.owned(e.Key) {
			var err error
			e.Any, err = core.AnytimeFromProfile(c.request(e.Networks), e.Prob, e.Profile)
			if err != nil {
				return nil, false, err
			}
			c.trace(obs.Event{AtMs: nowMs, Kind: obs.KindCacheSolve, Request: obs.NoRequest,
				Detail: e.Key, Value: float64(e.solverNodes())})
		} else {
			// Another shard owns this mix's solve: serve naive for now and
			// ask for the owner's schedule at the next gossip barrier.
			c.deferSolve(e)
		}
	}
	c.put(e)
	return e, false, nil
}

// Probe returns the entry for a workload mix so the analytic contention
// model can score a candidate batch before anything is dispatched. The
// boolean reports whether the mix was already dispatched (a live entry).
// An unseen mix is characterized — and, in a solving cache, solved, with
// its incumbent replay anchored at nowMs — once and memoized as a probe,
// so repeated scoring of the same candidate costs a map lookup, and the
// eventual dispatch of a probed mix promotes the probe (solve progress
// included) instead of repeating the work: scoring doubles as speculative
// solving of the candidate mixes the policy is weighing. Failures are
// memoized like successes — Probe sits on the per-round scoring and
// per-arrival placement paths, which must never repeat a failing
// characterization. A mix naming a network outside the zoo needs no memo:
// it fails at the name's lookup, characterizing nothing. Probes never
// count as hits or misses and are excluded from Export.
func (c *Cache) Probe(networks []string, nowMs float64) (*Entry, bool, error) {
	var buf [mixBufLen]int
	mix, err := resolve(buf[:0], networks)
	if err != nil {
		return nil, false, err
	}
	return c.probe(mix, nowMs)
}

// probe is Probe on a canonical mix given as its sorted zoo index tuple.
func (c *Cache) probe(mix []int, nowMs float64) (*Entry, bool, error) {
	s := c.slotOf(mix)
	if e, live, seen, err := c.probed(s); seen {
		return e, live, err
	}
	e, err := c.build(s, mix, nowMs)
	if err != nil {
		c.slots[s].err = err
		return nil, false, err
	}
	if c.cfg.Solve {
		if c.owned(e.Key) {
			e.Any, err = core.AnytimeFromProfile(c.request(e.Networks), e.Prob, e.Profile)
			if err != nil {
				c.slots[s].err = err
				return nil, false, err
			}
		} else {
			c.deferSolve(e)
		}
	}
	c.addProbe(e, nowMs)
	return e, false, nil
}

// addProbe registers a freshly built entry as its slot's scoring probe,
// counting and tracing it.
func (c *Cache) addProbe(e *Entry, nowMs float64) {
	c.Probes++
	c.trace(obs.Event{AtMs: nowMs, Kind: obs.KindCacheProbe, Request: obs.NoRequest,
		Detail: e.Key, Value: float64(e.solverNodes())})
	c.slots[e.slot].probe = e
	c.probes++
}

// probed resolves a mix slot Probe has already seen: a live entry, a
// scoring probe or a memoized failure. seen is false for an unseen mix.
func (c *Cache) probed(s int32) (e *Entry, live, seen bool, err error) {
	switch sl := &c.slots[s]; {
	case sl.live != nil:
		return sl.live, true, true, nil
	case sl.probe != nil:
		return sl.probe, false, true, nil
	case sl.err != nil:
		return nil, false, true, sl.err
	}
	return nil, false, false, nil
}

// ProbeAll is Probe over a whole set of candidate mixes at once: the
// contention-aware mix former scores its entire beam (plus lookahead
// complements) per round, so the unseen mixes' characterizations and
// speculative solves — the expensive, cache-independent work — run
// concurrently across goroutines. All cache state is committed serially
// in first-appearance order afterwards, so counters, trace events, map
// contents and every returned entry match a serial Probe loop exactly:
// concurrency changes wall-clock only, never a summary byte. Results
// align with mixes; each slot carries either an entry or the error Probe
// would return.
func (c *Cache) ProbeAll(mixes [][]string, nowMs float64) ([]*Entry, []error) {
	entries := make([]*Entry, len(mixes))
	errs := make([]error, len(mixes))
	tuples := make([][]int, len(mixes))
	for i, mix := range mixes {
		tuples[i], errs[i] = resolve(nil, mix)
	}
	c.probeAll(tuples, nowMs, entries, errs)
	return entries, errs
}

// probeAll is ProbeAll on canonical mixes given as sorted zoo index
// tuples, writing into caller-provided result slots (each len(mixes)
// long). A nil mix is skipped, its slots left as the caller set them.
// Only an unseen mix allocates: its key, its names and its build.
func (c *Cache) probeAll(mixes [][]int, nowMs float64, entries []*Entry, errs []error) {
	type build struct {
		slot int32
		mix  []int
		at   []int // the positions of mixes this build answers
		e    *Entry
		err  error
	}
	var builds []*build
	for i, mix := range mixes {
		if mix == nil {
			continue
		}
		s := c.slotOf(mix)
		if e, _, seen, err := c.probed(s); seen {
			entries[i], errs[i] = e, err
			continue
		}
		// An unseen mix; a duplicate of an earlier one shares its build.
		var b *build
		for _, o := range builds {
			if o.slot == s {
				b = o
				break
			}
		}
		if b == nil {
			b = &build{slot: s, mix: mix}
			builds = append(builds, b)
		}
		b.at = append(b.at, i)
	}
	if len(builds) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, b := range builds {
		wg.Add(1)
		//detlint:allow baregoroutine ProbeAll solve pool: serial dedupe before, wg.Wait barrier after, results committed in first-appearance order
		go func(b *build) {
			defer wg.Done()
			e, err := c.build(b.slot, b.mix, nowMs)
			if err == nil && c.cfg.Solve && c.owned(e.Key) {
				e.Any, err = core.AnytimeFromProfile(c.request(e.Networks), e.Prob, e.Profile)
			}
			b.e, b.err = e, err
		}(b)
	}
	wg.Wait()
	for _, b := range builds {
		if b.err != nil {
			// A failed solve leaves a built entry behind; like Probe, the
			// slots get the memoized error and no entry.
			c.slots[b.slot].err = b.err
			for _, i := range b.at {
				errs[i] = b.err
			}
			continue
		}
		if c.cfg.Solve && !c.owned(b.e.Key) {
			c.deferSolve(b.e)
		}
		c.addProbe(b.e, nowMs)
		for _, i := range b.at {
			entries[i] = b.e
		}
	}
}

// request is the core request resolving a canonical mix on this cache's
// platform and objective.
func (c *Cache) request(canon []string) core.Request {
	return core.Request{Platform: c.cfg.Platform, Networks: canon, Objective: c.cfg.Objective}
}

// build characterizes the canonical mix of slot s, given as its sorted
// zoo index tuple, into an unsolved entry (problem, profile, naive
// schedule) carrying the mix's names and key. It reads nothing but the
// configuration and touches no cache state — it runs on ProbeAll's pool —
// so it neither registers the entry nor counts anything: Lookup, Probe,
// SeedFromSchedule and Import each finish it their own way.
func (c *Cache) build(s int32, mix []int, nowMs float64) (*Entry, error) {
	canon := make([]string, len(mix))
	for k, i := range mix {
		canon[k] = nn.Name(i)
	}
	prob, pr, err := core.Prepare(c.request(canon))
	if err != nil {
		return nil, err
	}
	return &Entry{
		Key:       c.key(canon),
		Networks:  canon,
		Prob:      prob,
		Profile:   pr,
		Naive:     baselines.GPUOnly(pr),
		CreatedMs: nowMs,
		cache:     c,
		slot:      s,
		evals:     map[string]*schedule.Eval{},
	}, nil
}

// solverNodes is the entry's background-solver work counter (0 when the
// cache does not solve).
func (e *Entry) solverNodes() int {
	if e.Any == nil {
		return 0
	}
	return e.Any.Stats.Nodes
}

// SolverNodes totals the background solver's deterministic work counter
// over every live entry and scoring probe — the cache's share of the
// solver-effort metric.
func (c *Cache) SolverNodes() int {
	total := 0
	for _, sl := range c.slots {
		for _, e := range [...]*Entry{sl.live, sl.probe} {
			if e != nil {
				total += e.solverNodes()
			}
		}
	}
	return total
}

// FillMetrics snapshots the cache's effectiveness counters into the
// registry under the "cache.<platform>." namespace. Gauges (entry and
// probe counts, solver nodes) use Set so runtimes sharing one cache do
// not double-count them; the per-lookup counters use Add.
func (c *Cache) FillMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p := "cache." + c.deviceLabel() + "."
	reg.Set(p+"entries", float64(c.live))
	reg.Set(p+"probes_live", float64(c.probes))
	reg.Set(p+"solver_nodes", float64(c.SolverNodes()))
	reg.Set(p+"hits", float64(c.Hits))
	reg.Set(p+"misses", float64(c.Misses))
	reg.Set(p+"upgrades", float64(c.Upgrades))
	reg.Set(p+"probes", float64(c.Probes))
	reg.Set(p+"promotions", float64(c.Promotions))
	reg.Set(p+"warm_hits", float64(c.WarmHits))
	reg.Set(p+"deferred", float64(c.Deferred))
	reg.Set(p+"assists", float64(c.Assists))
}

// Use returns the schedule deployed for this entry at virtual time nowMs:
// the newest solver incumbent whose (scaled) virtual solve time has elapsed
// since the miss, or the naive schedule when nothing is solved. Virtual
// solve time is derived from the solver's deterministic node counter
// (solver.Anytime.ScheduleAtNodes) rather than wall time, so replaying the
// same trace deploys the same upgrades at the same virtual instants.
// Advancing to a newer incumbent than any previous Use counts as a cache
// upgrade.
func (e *Entry) Use(nowMs float64) *schedule.Schedule {
	s := e.Deployable(nowMs)
	if e.lastSched != nil && s != e.lastSched {
		e.cache.Upgrades++
	}
	e.lastSched = s
	return s
}

// Deployable returns the schedule Use would deploy at virtual time nowMs
// without recording the deployment — no upgrade accounting, no state
// change. The mix-forming scorer peeks through it: scoring a candidate
// batch must predict exactly what dispatching it would run, yet leave the
// entry untouched in case the batch loses.
func (e *Entry) Deployable(nowMs float64) *schedule.Schedule {
	if e.Any == nil || len(e.Any.History) == 0 {
		if e.Seeded != nil {
			return e.Seeded
		}
		return e.Naive
	}
	nodes := e.Any.History[len(e.Any.History)-1].Nodes
	if !e.settled {
		// Clamp before converting: a huge virtual gap must saturate at
		// "every incumbent landed", not overflow the int conversion.
		f := (nowMs - e.CreatedMs) / e.cache.cfg.scale() * solver.NodesPerMs
		if f < float64(nodes) {
			nodes = int(f)
		}
	}
	return e.Any.ScheduleAtNodes(nodes)
}

// Best returns the entry's final (best-known) schedule.
func (e *Entry) Best() *schedule.Schedule {
	if e.Any == nil || e.Any.Best == nil {
		if e.Seeded != nil {
			return e.Seeded
		}
		return e.Naive
	}
	return e.Any.Best
}

// Evaluate measures a schedule for this mix on the ground-truth simulator,
// memoizing per schedule — repeated rounds of a cached mix cost a pointer
// comparison or a map lookup, not a simulation. Schedules with equal keys
// share one evaluation. The evaluation records no timeline (its Result is
// nil); serving reads only its figures and stream ends.
func (e *Entry) Evaluate(s *schedule.Schedule) (*schedule.Eval, error) {
	if ev, ok := e.evaluated(s); ok {
		return ev, nil
	}
	gt := schedule.NewEvaluator(e.Prob, e.Profile, sim.GroundTruth{SatBW: e.Prob.Platform.SatBW()})
	ev, err := gt.Evaluate(s)
	gt.Release()
	if err != nil {
		return nil, err
	}
	e.evals[s.Key()] = ev
	e.remember(s, ev)
	return ev, nil
}

// keyBufLen sizes the stack buffers schedule keys are built in; a longer
// key spills to the heap, which costs an allocation but not correctness.
const keyBufLen = 128

// ownEval is one identity-memo slot: one of the entry's own schedules and
// its evaluation.
type ownEval struct {
	s  *schedule.Schedule
	ev *schedule.Eval
}

// evaluated returns Evaluate's memoized result for s, if any, without
// allocating: the entry's own schedules are found by identity, any other
// by its key, built in a stack buffer. A key hit on an own schedule joins
// the identity memo, with the very evaluation the key maps to.
func (e *Entry) evaluated(s *schedule.Schedule) (*schedule.Eval, bool) {
	for _, o := range e.ownEvals {
		if o.s == s {
			return o.ev, true
		}
	}
	var buf [keyBufLen]byte
	ev, ok := e.evals[string(s.AppendKey(buf[:0]))]
	if ok {
		e.remember(s, ev)
	}
	return ev, ok
}

// remember adds s and its evaluation to the identity memo when s is one of
// the entry's own schedules.
func (e *Entry) remember(s *schedule.Schedule, ev *schedule.Eval) {
	if e.owns(s) {
		e.ownEvals = append(e.ownEvals, ownEval{s, ev})
	}
}

// owns reports whether s is one of the schedules the entry itself can
// deploy: its naive or seeded schedule, or its solver run's seed, best or
// any incumbent. None of them changes once built or solved, and the memo
// keeps each one alive, so its pointer identifies its assignment for the
// entry's life.
func (e *Entry) owns(s *schedule.Schedule) bool {
	if s == nil {
		return false
	}
	if s == e.Naive || s == e.Seeded {
		return true
	}
	if e.Any == nil {
		return false
	}
	if s == e.Any.Seed || s == e.Any.Best {
		return true
	}
	for _, inc := range e.Any.History {
		if inc.Schedule == s {
			return true
		}
	}
	return false
}

// Predict evaluates a schedule for this mix under the analytic contention
// model — the arbiter the background solver optimizes with — instead of
// the ground-truth simulator. It is the "predicted" half of the forensics
// audit: Predict and Evaluate on the same deployed schedule yield exactly
// the model-vs-reality pair the calibration table is built from. Memoized
// per schedule like Evaluate, and like it without a timeline; called only
// on the single-threaded dispatch path.
func (e *Entry) Predict(s *schedule.Schedule) (*schedule.Eval, error) {
	var buf [keyBufLen]byte
	if ev, ok := e.predEvals[string(s.AppendKey(buf[:0]))]; ok {
		return ev, nil
	}
	m, err := core.Model(e.cache.request(nil))
	if err != nil {
		return nil, err
	}
	pred := schedule.NewEvaluator(e.Prob, e.Profile, sim.ModelArbiter{Model: m})
	ev, err := pred.Evaluate(s)
	pred.Release()
	if err != nil {
		return nil, err
	}
	if e.predEvals == nil {
		e.predEvals = map[string]*schedule.Eval{}
	}
	e.predEvals[s.Key()] = ev
	return ev, nil
}
