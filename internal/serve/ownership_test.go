// Solve-ownership tests: the sharded plane's deterministic partition of
// background solving across cooperating caches (CacheConfig.SolveOwner),
// the wanted/EnsureSolved assist loop, and the gossip upgrade that
// settles a deferred stub in place.
package serve

import (
	"testing"

	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

func ownershipCache(t *testing.T, owner func(string) bool) *Cache {
	t.Helper()
	p, _ := soc.PlatformByName("Orin")
	c, err := NewCache(CacheConfig{Platform: p, Objective: schedule.MinMaxLatency,
		Solve: true, SolverTimeScale: 50, SolveOwner: owner})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSolveOwnershipDeferral: a miss on a mix the cache does not own is
// characterized and served naive — no solver run — and the mix is
// reported wanted until the owner's gossiped schedule settles it in
// place, at which point the first hit counts as a warm hit.
func TestSolveOwnershipDeferral(t *testing.T) {
	mix := []string{"ResNet152", "VGG19"}
	follower := ownershipCache(t, func(string) bool { return false })

	e, hit, err := follower.Lookup(mix, 0)
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v", hit, err)
	}
	if e.Any != nil {
		t.Fatal("deferred miss ran the background solver")
	}
	if follower.Deferred != 1 {
		t.Fatalf("Deferred = %d, want 1", follower.Deferred)
	}
	wants := follower.Wanted()
	if len(wants) != 1 || len(wants[0].Networks) != 2 {
		t.Fatalf("Wanted() = %+v, want the deferred mix", wants)
	}
	// The stub still serves: its naive schedule is deployable immediately.
	if s := e.Deployable(10); s == nil {
		t.Fatal("deferred stub has no deployable schedule")
	}

	// The owner solves the want on its own cache and exports it.
	owner := ownershipCache(t, nil)
	ran, err := owner.EnsureSolved(wants[0].Networks, 20)
	if err != nil || !ran {
		t.Fatalf("EnsureSolved: ran=%v err=%v", ran, err)
	}
	if owner.Assists != 1 {
		t.Fatalf("owner Assists = %d, want 1", owner.Assists)
	}
	if ran, err := owner.EnsureSolved(wants[0].Networks, 30); err != nil || ran {
		t.Fatalf("re-EnsureSolved on a solved mix: ran=%v err=%v", ran, err)
	}
	snap := owner.Export()
	if len(snap.Entries) != 1 || !snap.Entries[0].Solved {
		t.Fatalf("owner export: %+v, want one solved entry", snap.Entries)
	}

	// The follower's stub exports unsolved, so importers skip it.
	fsnap := follower.Export()
	if len(fsnap.Entries) != 1 || fsnap.Entries[0].Solved {
		t.Fatalf("follower export: %+v, want one unsolved stub", fsnap.Entries)
	}

	// Gossiping the owner's schedule back settles the stub *in place* —
	// the entry pointer already in the dispatch path upgrades.
	donor := liveEntry(owner, wants[0].Networks).Best()
	added, err := follower.GossipSeed(wants[0].Networks, donor, 40)
	if err != nil || !added {
		t.Fatalf("gossip settle: added=%v err=%v", added, err)
	}
	if liveEntry(follower, mix) != e {
		t.Fatal("gossip import replaced the deferred stub instead of upgrading it")
	}
	if !e.settled {
		t.Fatal("gossiped stub not settled")
	}
	if got := follower.Wanted(); len(got) != 0 {
		t.Fatalf("settled mix still wanted: %+v", got)
	}
	// Re-gossip of the settled entry is a no-op (idempotent import).
	if added, err := follower.GossipSeed(wants[0].Networks, donor, 50); err != nil || added {
		t.Fatalf("re-gossip of settled stub: added=%v err=%v", added, err)
	}
	// First real hit on the settled stub is the saved solve.
	if _, hit, err := follower.Lookup(mix, 60); err != nil || !hit {
		t.Fatalf("post-settle lookup: hit=%v err=%v", hit, err)
	}
	if follower.WarmHits != 1 {
		t.Errorf("WarmHits = %d, want 1", follower.WarmHits)
	}
}

// TestSolveOwnershipProbeDeferral: scoring probes on non-owned mixes are
// characterized but not solved, and report wanted like misses.
func TestSolveOwnershipProbeDeferral(t *testing.T) {
	follower := ownershipCache(t, func(string) bool { return false })
	e, live, err := follower.Probe([]string{"VGG19"}, 0)
	if err != nil || live {
		t.Fatalf("probe: live=%v err=%v", live, err)
	}
	if e.Any != nil {
		t.Fatal("deferred probe ran the background solver")
	}
	if follower.Deferred != 1 || len(follower.Wanted()) != 1 {
		t.Fatalf("Deferred=%d Wanted=%d, want 1/1", follower.Deferred, len(follower.Wanted()))
	}
}
