// The gossip hub: the deterministic barrier the K shard goroutines
// synchronize at. It is a mutex and condition variable: every shard
// advances to the same virtual barrier time, submits its report and
// parks; the last arrival commits the round — merges the exported cache entries in shard order,
// decides tenant handoffs against the load reports, mutates the parked
// peers' drivers directly (safe: every peer is blocked in cond.Wait, so
// the mutex hand-off orders the committer's writes before their reads) —
// and broadcasts. Everything committed is a pure function of the
// submitted reports, and reports are pure functions of per-shard
// deterministic state, so rounds commit identically run to run.
package shard

import (
	"sort"
	"strings"
	"sync"

	"haxconn/internal/schedule"
)

// entryExport is one solved cache entry on the gossip channel.
type entryExport struct {
	Platform string
	Key      string // canonical mix key within the platform
	Networks []string
	Assign   [][]int
	Origin   int // exporting shard
}

// schedule reconstructs the exported assignment (the importer's
// GossipSeed remaps and re-costs it; the rows themselves are never
// mutated).
func (e entryExport) schedule() *schedule.Schedule {
	return &schedule.Schedule{Assign: e.Assign}
}

// wantExport is one deferred solve on the gossip channel: a mix a
// non-owning shard encountered and left to its owner.
type wantExport struct {
	Platform string
	Key      string   // full cache key, the string ownership hashes
	Networks []string // canonical mix, handed to EnsureSolved
	Origin   int      // first shard that wanted it (shard order)
	Owner    int      // shard routed to solve it (set by the committer)
}

// report is one shard's input to a barrier round.
type report struct {
	exports   []entryExport
	wants     []wantExport
	backlogMs float64 // mean queued backlog per active device
	done      bool    // no future arrivals, nothing in flight
}

// roundResult is what every shard takes home from a committed round.
type roundResult struct {
	merged   []entryExport
	wants    []wantExport
	handoffs []Handoff
	done     bool
}

// hub is the barrier.
type hub struct {
	mu   sync.Mutex
	cond *sync.Cond

	plane  *Plane
	shards []*shardState

	arrived int
	round   int // committed rounds
	reports []*report
	res     roundResult
	err     error

	lastHandoff map[string]int // tenant -> round of its last handoff
	log         []Handoff      // all rounds' handoffs, in commit order
}

func newHub(p *Plane, shards []*shardState) *hub {
	h := &hub{
		plane:       p,
		shards:      shards,
		reports:     make([]*report, len(shards)),
		lastHandoff: map[string]int{},
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// fail aborts the run: every parked shard wakes with the error, and every
// later sync returns it immediately.
func (h *hub) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.cond.Broadcast()
	h.mu.Unlock()
}

// sync submits one shard's report and blocks until the round commits. The
// last shard to arrive commits under the lock.
func (h *hub) sync(idx int, rep *report) (roundResult, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return roundResult{}, h.err
	}
	h.reports[idx] = rep
	h.arrived++
	round := h.round
	if h.arrived == len(h.shards) {
		h.commitLocked()
	} else {
		for h.round == round && h.err == nil {
			h.cond.Wait()
		}
	}
	if h.err != nil {
		return roundResult{}, h.err
	}
	return h.res, nil
}

// commitLocked merges the round. Caller holds h.mu; every other shard is
// parked in cond.Wait, so touching their drivers here is ordered by the
// mutex: their last writes happened before they took the lock to arrive,
// and the broadcast + lock hand-off orders these writes before they
// resume.
func (h *hub) commitLocked() {
	h.round++
	h.arrived = 0
	barrier := float64(h.round) * h.plane.periodMs()

	// Merge the exports in shard order: the first shard to solve a mix
	// wins ties, and within a shard Export's sorted order is kept, so the
	// merged list is deterministic.
	var merged []entryExport
	seen := map[string]bool{}
	for _, rep := range h.reports {
		for _, e := range rep.exports {
			id := e.Platform + "\x00" + e.Key
			if seen[id] {
				continue
			}
			seen[id] = true
			merged = append(merged, e)
		}
	}

	// Route the round's wants to their owners, in shard order then report
	// order, so every run routes identically. A want a merged export
	// already satisfies is dropped — the importer settles it this round.
	// When the hashed owner has no cache for the want's platform the want
	// routes back to its origin, which certainly does (it deferred from
	// that very cache) and whose EnsureSolved solves the stub in place.
	var wants []wantExport
	wseen := map[string]bool{}
	for _, rep := range h.reports {
		for _, w := range rep.wants {
			id := w.Platform + "\x00" + strings.Join(w.Networks, "+")
			if seen[id] || wseen[id] {
				continue
			}
			wseen[id] = true
			w.Owner = mixOwner(w.Key, len(h.shards))
			if h.shards[w.Owner].drv.Fleet().Cache(w.Platform) == nil {
				w.Owner = w.Origin
			}
			wants = append(wants, w)
		}
	}

	handoffs := h.handoffsLocked(barrier)

	done := len(handoffs) == 0
	for _, rep := range h.reports {
		if !rep.done {
			done = false
		}
	}
	h.res = roundResult{merged: merged, wants: wants, handoffs: handoffs, done: done}
	h.log = append(h.log, handoffs...)
	h.cond.Broadcast()
}

// handoffsLocked decides and executes this round's tenant moves: each
// shard whose backlog exceeds the handoff watermark sheds its busiest
// future tenant (most arrivals after the barrier, ties to the
// lexicographically first name) to the least-loaded unpressured shard;
// each shard gives and takes at most one tenant per round, and a moved
// tenant rests for the cooldown. Counting future arrivals, extraction and
// injection all run here, on the parked peers' drivers. Only pressured
// shards are counted, and a pressured shard is never a recipient, so each
// count sees the shard's arrivals exactly as it reached the barrier.
func (h *hub) handoffsLocked(barrier float64) []Handoff {
	if h.plane.cfg.NoHandoff || len(h.shards) < 2 {
		return nil
	}
	threshold := h.plane.cfg.HandoffBacklogMs
	cooldown := h.plane.cfg.HandoffCooldownRounds
	took := make([]bool, len(h.shards))
	var out []Handoff
	for from, rep := range h.reports {
		if rep.backlogMs < threshold {
			continue
		}
		tenant, best := "", 0
		for t, n := range h.shards[from].drv.FutureArrivals(barrier) {
			if n == 0 {
				continue
			}
			if last, ok := h.lastHandoff[t]; ok && h.round-last <= cooldown {
				continue
			}
			if n > best || (n == best && (tenant == "" || t < tenant)) {
				tenant, best = t, n
			}
		}
		if tenant == "" {
			continue
		}
		to, minBacklog := -1, 0.0
		for j, other := range h.reports {
			if j == from || took[j] || other.backlogMs >= threshold {
				continue
			}
			if to < 0 || other.backlogMs < minBacklog {
				to, minBacklog = j, other.backlogMs
			}
		}
		if to < 0 {
			continue
		}
		moved := h.shards[from].drv.ExtractFuture(tenant, barrier)
		if len(moved) == 0 {
			continue
		}
		h.shards[to].drv.Inject(moved)
		took[to] = true
		h.lastHandoff[tenant] = h.round
		out = append(out, Handoff{
			Round:     h.round,
			AtMs:      barrier,
			Tenant:    tenant,
			From:      from,
			To:        to,
			Moved:     len(moved),
			BacklogMs: rep.backlogMs,
			Cause:     "backlog-pressure",
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}
