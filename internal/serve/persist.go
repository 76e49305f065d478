// Cache persistence and cross-platform transfer: solved schedule-cache
// entries serialized to JSON so restarts skip re-solving known mixes
// (Export/Import, the -cache-save/-cache-load flags of cmd/serve and
// cmd/fleet), and entries seeded from another platform's solved assignment
// re-costed on this platform's profile (SeedFromSchedule) — so a device of
// an unseen platform joining a fleet starts from a transferred schedule
// instead of a naive one.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"haxconn/internal/core"
	"haxconn/internal/schedule"
)

// EntrySnapshot is one persisted cache entry: a canonical workload mix and
// the best-known assignment for it. The characterization tables are not
// persisted — they are deterministic in (platform, mix, max groups) and are
// recomputed on load. Solved marks entries whose assignment came from a
// finished (or settled) solve; a deferred stub — a mix whose solve belongs
// to another shard in a solve-ownership partition — exports its naive
// schedule unsolved, and importers skip it.
type EntrySnapshot struct {
	Networks []string `json:"networks"`
	Assign   [][]int  `json:"assign"`
	Solved   bool     `json:"solved"`
}

// CacheSnapshot is a persisted schedule cache: the configuration that keys
// its entries plus the solved assignments, sorted by mix for stable diffs.
// MaxGroups is the layer-group cap the assignments were characterized
// under; 0 stands for nn.DefaultMaxGroups, the only cap serving runs on.
type CacheSnapshot struct {
	Platform  string          `json:"platform"`
	Objective string          `json:"objective"`
	MaxGroups int             `json:"max_groups"`
	Entries   []EntrySnapshot `json:"entries"`
}

// Export snapshots the cache's solved state: every entry's mix and
// best-known schedule, in sorted key order.
func (c *Cache) Export() *CacheSnapshot {
	snap := &CacheSnapshot{
		Platform:  c.cfg.Platform.Name,
		Objective: c.cfg.Objective.String(),
	}
	live := make([]*Entry, 0, c.live)
	for _, sl := range c.slots {
		if sl.live != nil {
			live = append(live, sl.live)
		}
	}
	slices.SortFunc(live, func(a, b *Entry) int { return strings.Compare(a.Key, b.Key) })
	for _, e := range live {
		snap.Entries = append(snap.Entries, EntrySnapshot{
			Networks: append([]string(nil), e.Networks...),
			Assign:   e.Best().Clone().Assign,
			Solved:   c.exportable(e),
		})
	}
	return snap
}

// Import restores persisted entries into the cache: each mix is
// re-characterized on this platform and registered as a settled entry
// deploying the snapshotted schedule, so serving it is a cache hit that
// skips both the solve and the upgrade replay. Entries already present are
// left untouched; a scoring probe of the mix is dropped, since the
// snapshot's assignment replaces whatever the probe's speculative solve
// would deploy. The snapshot's platform and objective must match the
// cache's, and its group cap must be 0 (the default). Returns the number of
// entries restored.
func (c *Cache) Import(snap *CacheSnapshot) (int, error) {
	if snap == nil {
		return 0, fmt.Errorf("serve: nil cache snapshot")
	}
	if snap.Platform != c.cfg.Platform.Name {
		return 0, fmt.Errorf("serve: snapshot is for platform %s, cache for %s", snap.Platform, c.cfg.Platform.Name)
	}
	if snap.Objective != c.cfg.Objective.String() {
		return 0, fmt.Errorf("serve: snapshot objective %s != cache objective %s", snap.Objective, c.cfg.Objective)
	}
	if snap.MaxGroups != 0 {
		return 0, fmt.Errorf("serve: snapshot max groups %d != cache 0 (the default)", snap.MaxGroups)
	}
	n := 0
	for _, es := range snap.Entries {
		if !es.Solved {
			// A deferred stub's naive assignment is not worth settling: the
			// owning shard's solve never reached this snapshot.
			continue
		}
		mix, err := resolve(nil, es.Networks)
		if err != nil {
			return n, fmt.Errorf("serve: snapshot entry %q: %w", es.Networks, err)
		}
		slot := c.slotOf(mix)
		if c.slots[slot].live != nil {
			continue
		}
		e, err := c.build(slot, mix, 0)
		if err != nil {
			return n, err
		}
		s := &schedule.Schedule{}
		for _, row := range es.Assign {
			s.Assign = append(s.Assign, append([]int(nil), row...))
		}
		if err := s.Validate(e.Profile); err != nil {
			return n, fmt.Errorf("serve: snapshot entry %q: %w", e.Key, err)
		}
		e.Seeded = s
		e.settled = true
		if c.slots[slot].probe != nil {
			c.slots[slot].probe = nil
			c.probes--
		}
		c.put(e)
		n++
	}
	return n, nil
}

// SeedFromSchedule creates the entry for a workload mix from another
// platform's solved assignment: the mix is characterized on this cache's
// platform, the donor schedule is remapped onto its accelerators and
// re-costed on the ground-truth simulator, and — when it beats this
// platform's naive schedule — deploys from the first hit while the
// background solver (itself seeded with the transfer) keeps improving it.
// nowMs anchors the background solve (the joining device's registration
// time). An already-cached mix is left untouched. The boolean reports
// whether the transferred schedule improved on the naive one.
func (c *Cache) SeedFromSchedule(networks []string, donor *schedule.Schedule, nowMs float64) (bool, error) {
	e, _, err := c.seedSchedule(networks, donor, nowMs, false)
	if err != nil || e == nil {
		return false, err
	}
	return e.Seeded != nil, nil
}

// GossipSeed registers a schedule another shard solved and gossiped. It is
// SeedFromSchedule with warm-hit accounting: a fresh entry is marked
// gossiped, so its first real Lookup hit counts in Cache.WarmHits — the
// measure of local solves the gossip channel saved. The boolean reports
// whether the import created (or promoted) an entry; re-gossiped mixes
// that are already live return false without touching any state, so
// repeated imports of the same entry are idempotent.
func (c *Cache) GossipSeed(networks []string, donor *schedule.Schedule, nowMs float64) (bool, error) {
	e, added, err := c.seedSchedule(networks, donor, nowMs, true)
	if err != nil || e == nil {
		return false, err
	}
	return added, nil
}

// seedSchedule is the shared core of SeedFromSchedule and GossipSeed: the
// mix is characterized on this cache's platform, the donor schedule is
// remapped onto its accelerators and re-costed on the ground-truth
// simulator. A cross-platform transfer (gossiped false) is only a *seed*:
// the donor's assignment was optimal somewhere else, so the background
// solver — itself seeded with the transfer — keeps improving it, anchored
// at nowMs. A gossiped transfer (gossiped true) comes from an identical
// platform, objective and group cap, where the donor's schedule is already
// the settled optimum: the entry adopts it settled, skipping the local
// solve entirely — that skipped solve is exactly the work the gossip
// channel exists to save.
//
// Idempotency: an already-live mix returns (nil, false, nil) without
// touching entries or counters. A mix the scorer already probed is
// *promoted* — characterization, incumbent stream and CreatedMs all kept,
// exactly as a Lookup promotion — instead of being rebuilt; rebuilding
// would orphan the probe and re-anchor its solve at the import time,
// throwing away real solve progress. Promoted entries are never marked
// gossiped: the local speculative solve did the work, the gossip merely
// confirmed it.
func (c *Cache) seedSchedule(networks []string, donor *schedule.Schedule, nowMs float64, gossiped bool) (*Entry, bool, error) {
	if donor == nil {
		return nil, false, fmt.Errorf("serve: nil donor schedule")
	}
	var buf [mixBufLen]int
	mix, err := resolve(buf[:0], networks)
	if err != nil {
		return nil, false, err
	}
	slot := c.slotOf(mix)
	if e := c.slots[slot].live; e != nil {
		if !gossiped || e.Any != nil || e.settled {
			return nil, false, nil
		}
		// A deferred stub (solve ownership sent this mix's solve to the
		// donor shard): adopt the owner's settled schedule in place. The
		// entry pointer is already in the dispatch path, so rounds upgrade
		// from naive to the owner's optimum at their next deploy.
		c.adoptDonor(e, donor)
		e.settled = true
		e.gossiped = true
		c.logExportable(e)
		return e, true, nil
	}
	if e := c.promote(slot, nowMs); e != nil {
		if e.Seeded == nil {
			c.adoptDonor(e, donor)
		}
		if gossiped && e.Any == nil && !e.settled {
			// A deferred probe: the solve lives with the donor shard, so the
			// promoted entry settles on the donor's schedule.
			e.settled = true
			e.gossiped = true
		}
		c.put(e)
		return e, true, nil
	}
	e, err := c.build(slot, mix, nowMs)
	if err != nil {
		return nil, false, err
	}
	c.adoptDonor(e, donor)
	if gossiped {
		// Same-platform import: the donor already solved this mix to its
		// settled optimum, so adopt it (or the naive tie) without a solve.
		e.settled = true
	} else if c.cfg.Solve {
		e.Any, err = core.AnytimeFromProfileSeeded(c.request(e.Networks), e.Prob, e.Profile, e.Seeded)
		if err != nil {
			return nil, false, err
		}
	}
	e.gossiped = gossiped
	c.put(e)
	return e, true, nil
}

// adoptDonor remaps the donor schedule onto the entry's profile and seeds
// the entry with it when it beats the entry's naive schedule.
func (c *Cache) adoptDonor(e *Entry, donor *schedule.Schedule) {
	t := remapSchedule(donor, e.Profile)
	if t == nil {
		return
	}
	evN, errN := e.Evaluate(e.Naive)
	evT, errT := e.Evaluate(t)
	if errN == nil && errT == nil && evT.Cost < evN.Cost {
		e.Seeded = t
	}
}

// remapSchedule maps a donor platform's assignment onto the target
// profile's accelerators: indices legal on the target are kept, others fall
// back deterministically onto the target's allowed list. The group shapes
// must match (they do across the evaluated platforms, which share the
// network zoo and group cap); nil when they cannot be reconciled.
func remapSchedule(donor *schedule.Schedule, pr *schedule.Profile) *schedule.Schedule {
	if len(donor.Assign) != len(pr.Groups) || len(pr.Allowed) == 0 {
		return nil
	}
	allowed := map[int]bool{}
	for _, a := range pr.Allowed {
		allowed[a] = true
	}
	s := &schedule.Schedule{Assign: make([][]int, len(donor.Assign))}
	for i, row := range donor.Assign {
		if len(row) != len(pr.Groups[i]) {
			return nil
		}
		s.Assign[i] = make([]int, len(row))
		for g, a := range row {
			if !allowed[a] {
				a = pr.Allowed[((a%len(pr.Allowed))+len(pr.Allowed))%len(pr.Allowed)]
			}
			s.Assign[i][g] = a
		}
	}
	if err := s.Validate(pr); err != nil {
		return nil
	}
	return s
}

// cacheFile is the on-disk format of SaveCaches: one file may hold the
// caches of several platform groups (cmd/fleet saves one per platform).
type cacheFile struct {
	Note   string           `json:"note"`
	Caches []*CacheSnapshot `json:"caches"`
}

// SaveCaches serializes the caches' snapshots as indented JSON, sorted by
// platform so repeated saves of the same state are byte-identical.
func SaveCaches(w io.Writer, caches ...*Cache) error {
	f := cacheFile{Note: "haxconn schedule-cache snapshot; load with -cache-load"}
	for _, c := range caches {
		if c != nil {
			f.Caches = append(f.Caches, c.Export())
		}
	}
	sort.Slice(f.Caches, func(i, j int) bool { return f.Caches[i].Platform < f.Caches[j].Platform })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// LoadSnapshots parses a SaveCaches file back into snapshots; the caller
// matches them to caches by platform and calls Import.
func LoadSnapshots(r io.Reader) ([]*CacheSnapshot, error) {
	var f cacheFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("serve: parsing cache snapshot: %w", err)
	}
	for i, s := range f.Caches {
		if s == nil {
			return nil, fmt.Errorf("serve: cache snapshot %d is null", i)
		}
	}
	return f.Caches, nil
}
