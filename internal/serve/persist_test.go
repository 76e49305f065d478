package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

func persistTrace(t *testing.T) Trace {
	t.Helper()
	tr, err := Generate([]TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 140, SLOMs: 10},
		{Name: "bob", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
	}, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newRuntime(t *testing.T, platform string) *Runtime {
	t.Helper()
	p, ok := soc.PlatformByName(platform)
	if !ok {
		t.Fatalf("unknown platform %q", platform)
	}
	rt, err := New(Config{Platform: p, SolverTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestCacheSaveLoadRoundTrip is the warm-persistence acceptance: a run on
// a cache loaded from a snapshot must produce byte-identical summaries to
// a warm re-serve on the original cache, with zero misses — restarts skip
// re-solving known mixes.
func TestCacheSaveLoadRoundTrip(t *testing.T) {
	tr := persistTrace(t)
	rt := newRuntime(t, "Orin")
	if _, err := rt.Serve(tr); err != nil {
		t.Fatal(err)
	}
	warm, err := rt.Serve(tr) // warm re-serve: settled entries deploy their best
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveCaches(&buf, rt.Cache()); err != nil {
		t.Fatal(err)
	}
	snaps, err := LoadSnapshots(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Platform != "Orin" {
		t.Fatalf("snapshots: %+v", snaps)
	}
	if len(snaps[0].Entries) != rt.Cache().Len() {
		t.Fatalf("snapshot has %d entries, cache %d", len(snaps[0].Entries), rt.Cache().Len())
	}

	loaded := newRuntime(t, "Orin")
	n, err := loaded.Cache().Import(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(snaps[0].Entries) {
		t.Fatalf("imported %d of %d entries", n, len(snaps[0].Entries))
	}
	got, err := loaded.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheMisses != 0 {
		t.Errorf("warm-loaded run missed %d times", got.CacheMisses)
	}
	a, _ := json.Marshal(warm)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("warm-loaded summary diverged from warm re-serve:\nwarm:   %s\nloaded: %s", a, b)
	}

	// Importing again over a warm cache is a no-op.
	if n, err := loaded.Cache().Import(snaps[0]); err != nil || n != 0 {
		t.Errorf("re-import: n=%d err=%v", n, err)
	}
}

// TestCacheSaveDeterministic: exporting the same cache twice yields
// byte-identical files (sorted entries), so snapshots diff cleanly.
func TestCacheSaveDeterministic(t *testing.T) {
	tr := persistTrace(t)
	rt := newRuntime(t, "Orin")
	if _, err := rt.Serve(tr); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := SaveCaches(&a, rt.Cache()); err != nil {
		t.Fatal(err)
	}
	if err := SaveCaches(&b, rt.Cache()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same cache differ")
	}
}

// TestImportValidation: snapshots for the wrong platform, objective or
// group cap are rejected, as are malformed assignments.
func TestImportValidation(t *testing.T) {
	rt := newRuntime(t, "Orin")
	cases := []struct {
		name string
		snap *CacheSnapshot
	}{
		{"nil", nil},
		{"wrong platform", &CacheSnapshot{Platform: "Xavier", Objective: "MinLatency"}},
		{"wrong objective", &CacheSnapshot{Platform: "Orin", Objective: "MaxFPS"}},
		{"wrong max groups", &CacheSnapshot{Platform: "Orin", Objective: "MinLatency", MaxGroups: 7}},
		{"bad assign", &CacheSnapshot{Platform: "Orin", Objective: "MinLatency",
			Entries: []EntrySnapshot{{Networks: []string{"VGG19"}, Assign: [][]int{{99}}, Solved: true}}}},
	}
	for _, tc := range cases {
		if _, err := rt.Cache().Import(tc.snap); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestLoadSnapshotsRejectsNull: a cache file whose caches array holds a
// null snapshot is an error, not a nil snapshot for the caller to
// dereference.
func TestLoadSnapshotsRejectsNull(t *testing.T) {
	if _, err := LoadSnapshots(strings.NewReader(`{"caches":[null]}`)); err == nil {
		t.Error("null snapshot accepted")
	}
}

// TestSeedFromScheduleBeatsNaiveColdStart is the cache-transfer
// acceptance: an Orin-solved schedule transferred to a Xavier cache must
// serve the mix's first hit with a measurably lower makespan than the
// schedule a cold Xavier cache deploys at the same instant, and the first
// lookup must be a hit rather than a miss.
func TestSeedFromScheduleBeatsNaiveColdStart(t *testing.T) {
	mix := []string{"ResNet152", "VGG19"}
	newCache := func(platform string) *Cache {
		p, _ := soc.PlatformByName(platform)
		c, err := NewCache(CacheConfig{Platform: p, Objective: schedule.MinMaxLatency, Solve: true, SolverTimeScale: 50})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	donor := newCache("Orin")
	de, _, err := donor.Lookup(mix, 0)
	if err != nil {
		t.Fatal(err)
	}

	const joinMs = 500
	cold := newCache("Xavier")
	ce, hit, err := cold.Lookup(mix, joinMs)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold lookup reported a hit")
	}
	coldEval, err := ce.Evaluate(ce.Use(joinMs))
	if err != nil {
		t.Fatal(err)
	}

	seeded := newCache("Xavier")
	improved, err := seeded.SeedFromSchedule(mix, de.Best(), joinMs)
	if err != nil {
		t.Fatal(err)
	}
	if !improved {
		t.Fatal("transferred schedule did not improve on the naive one")
	}
	se, hit, err := seeded.Lookup(mix, joinMs)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("seeded cache missed on its first lookup")
	}
	seededEval, err := se.Evaluate(se.Use(joinMs))
	if err != nil {
		t.Fatal(err)
	}
	if seededEval.MakespanMs >= coldEval.MakespanMs {
		t.Errorf("seeded first hit (%.3f ms) not better than cold start (%.3f ms)",
			seededEval.MakespanMs, coldEval.MakespanMs)
	}
	t.Logf("first-hit makespan: cold %.3f ms -> seeded %.3f ms (%.2f%% better)",
		coldEval.MakespanMs, seededEval.MakespanMs,
		100*(1-seededEval.MakespanMs/coldEval.MakespanMs))

	// Seeding an already-cached mix is a no-op.
	if improved, err := seeded.SeedFromSchedule(mix, de.Best(), joinMs); err != nil || improved {
		t.Errorf("re-seed: improved=%v err=%v", improved, err)
	}
}

// TestSeedPromotesProbe is the cross-shard import idempotency regression:
// seeding a mix the scorer already probed must *promote* the probe —
// keeping its characterization, incumbent stream and solve anchor —
// instead of rebuilding the entry. Before the fix, seedSchedule checked
// only the live entries, so a gossiped entry for a probed mix orphaned
// the probe and re-anchored its background solve at the import time,
// silently discarding real solve progress.
func TestSeedPromotesProbe(t *testing.T) {
	mix := []string{"ResNet152", "VGG19"}
	newCache := func() *Cache {
		p, _ := soc.PlatformByName("Orin")
		c, err := NewCache(CacheConfig{Platform: p, Objective: schedule.MinMaxLatency, Solve: true, SolverTimeScale: 50})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	donor := newCache()
	de, _, err := donor.Lookup(mix, 0)
	if err != nil {
		t.Fatal(err)
	}

	target := newCache()
	pe, live, err := target.Probe(mix, 0) // speculative solve anchored at t=0
	if err != nil {
		t.Fatal(err)
	}
	if live {
		t.Fatal("probe of an unseen mix reported a live entry")
	}

	added, err := target.GossipSeed(mix, de.Best(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("gossip import of a probed mix did not register an entry")
	}
	e := liveEntry(target, mix)
	if e != pe {
		t.Fatal("gossip import rebuilt the entry instead of promoting the probe")
	}
	if e.CreatedMs != 0 {
		t.Errorf("promoted entry re-anchored at %.0f ms; solve progress since t=0 lost", e.CreatedMs)
	}
	if e.Any != pe.Any {
		t.Error("promoted entry lost the probe's incumbent stream")
	}
	if n := liveProbes(target); n != 0 {
		t.Errorf("probe not removed on promotion: %d live probes", n)
	}
	if target.Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", target.Promotions)
	}
	if target.Hits != 0 || target.Misses != 0 {
		t.Errorf("import touched lookup stats: hits=%d misses=%d", target.Hits, target.Misses)
	}

	// Re-gossiping the same entry is a no-op: no new entry, no counter
	// movement, no re-anchoring.
	added, err = target.GossipSeed(mix, de.Best(), 800)
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Error("re-gossip of a live mix reported a fresh import")
	}
	if liveEntry(target, mix) != e || e.CreatedMs != 0 || target.Promotions != 1 {
		t.Error("re-gossip mutated the live entry")
	}

	// A promoted probe is local work, not a gossip warm-up: its first hit
	// must not count as a warm hit.
	if _, hit, err := target.Lookup(mix, 500); err != nil || !hit {
		t.Fatalf("lookup after promotion: hit=%v err=%v", hit, err)
	}
	if target.WarmHits != 0 {
		t.Errorf("promoted probe counted as warm hit (WarmHits=%d)", target.WarmHits)
	}
}

// TestImportDropsProbe: importing a solved snapshot entry for a mix the
// cache has only probed installs the snapshot's assignment and drops the
// probe, whose speculative solve the snapshot replaces. No probe stays
// live, the probe's solver nodes stop counting, nothing is promoted (a
// promoted probe would keep its solver run and deploy its incumbents),
// and a Lookup hit deploys the snapshot's assignment.
func TestImportDropsProbe(t *testing.T) {
	mix := []string{"AlexNet", "SqueezeNet"}
	cfg := CacheConfig{Platform: soc.Orin(), Solve: true, SolverTimeScale: 50}
	donor, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := donor.EnsureSolved(mix, 0); err != nil {
		t.Fatal(err)
	}
	snap := donor.Export()
	target, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := target.Probe(mix, 0); err != nil {
		t.Fatal(err)
	}
	if target.SolverNodes() == 0 {
		t.Fatal("the probe ran no speculative solve")
	}
	promotions := target.Promotions
	n, err := target.Import(snap)
	if err != nil || n != 1 {
		t.Fatalf("Import: %d entries, %v; want 1", n, err)
	}
	reg := obs.NewRegistry()
	target.FillMetrics(reg)
	if got := reg.Get("cache.Orin.probes_live"); got != 0 || liveProbes(target) != 0 {
		t.Errorf("probes_live %g, %d probes in the trie after the import; want 0", got, liveProbes(target))
	}
	if got := target.SolverNodes(); got != 0 {
		t.Errorf("SolverNodes %d after the import; the dropped probe's solve still counts", got)
	}
	if target.Promotions != promotions || target.Len() != 1 {
		t.Errorf("Promotions %d -> %d, Len %d; want the import alone", promotions, target.Promotions, target.Len())
	}
	e, hit, err := target.Lookup(mix, 1e6)
	if err != nil || !hit {
		t.Fatalf("Lookup after the import: hit=%v err=%v", hit, err)
	}
	want := snap.Entries[0].Assign
	if got := e.Use(1e6).Assign; !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Errorf("imported mix deploys %v, snapshot %v", got, want)
	}
}

// TestGossipSeedWarmHit: a fresh gossip-seeded entry's first real lookup
// counts once in WarmHits — the avoided local solve — and only once.
func TestGossipSeedWarmHit(t *testing.T) {
	mix := []string{"ResNet152", "VGG19"}
	p, _ := soc.PlatformByName("Orin")
	newCache := func() *Cache {
		c, err := NewCache(CacheConfig{Platform: p, Objective: schedule.MinMaxLatency, Solve: true, SolverTimeScale: 50})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	donor := newCache()
	de, _, err := donor.Lookup(mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := newCache()
	if added, err := warm.GossipSeed(mix, de.Best(), 100); err != nil || !added {
		t.Fatalf("gossip seed: added=%v err=%v", added, err)
	}
	for i, wantWarm := range []int{1, 1} { // first hit counts, second does not
		if _, hit, err := warm.Lookup(mix, 200+float64(i)); err != nil || !hit {
			t.Fatalf("lookup %d: hit=%v err=%v", i, hit, err)
		}
		if warm.WarmHits != wantWarm {
			t.Errorf("lookup %d: WarmHits = %d, want %d", i, warm.WarmHits, wantWarm)
		}
	}
	if warm.Misses != 0 || warm.Hits != 2 {
		t.Errorf("stats: hits=%d misses=%d, want 2/0", warm.Hits, warm.Misses)
	}
}

// FuzzCacheImport: hostile cache files go through LoadSnapshots and each
// snapshot is imported into a fresh Orin cache. The result is an error or
// a count, never a panic; and after a clean import every solved mix is a
// Lookup hit deploying the snapshot's assignment (the first one listed
// for its mix: Import leaves a live mix untouched), one import per mix.
func FuzzCacheImport(f *testing.F) {
	cfg := CacheConfig{Platform: soc.Orin(), Solve: true, SolverTimeScale: 50}
	donor, err := NewCache(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, mix := range [][]string{{"VGG19", "ResNet152"}, {"AlexNet"}, {"SqueezeNet", "SqueezeNet", "ResNet18"}} {
		if _, err := donor.EnsureSolved(mix, 0); err != nil {
			f.Fatal(err)
		}
	}
	var file bytes.Buffer
	if err := SaveCaches(&file, donor); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add([]byte(`{"caches":[{"platform":"Orin","objective":"MinLatency","max_groups":0,"entries":[` +
		`{"networks":["VGG19","AlexNet"],"assign":[[0],[1]],"solved":true},` +
		`{"networks":["AlexNet","VGG19"],"assign":[[1],[0]],"solved":true},` +
		`{"networks":[],"assign":[],"solved":true},` +
		`{"networks":["NoSuchNet"],"assign":[[0]],"solved":true}]}]}`))
	f.Add([]byte(`{"caches":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps, err := LoadSnapshots(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, snap := range snaps {
			c, err := NewCache(CacheConfig{Platform: soc.Orin()})
			if err != nil {
				t.Fatal(err)
			}
			n, err := c.Import(snap)
			if err != nil {
				continue
			}
			first := map[string][][]int{}
			for _, es := range snap.Entries {
				if !es.Solved {
					continue
				}
				key, _ := modelKey(es.Networks)
				if _, ok := first[key]; ok {
					continue
				}
				first[key] = es.Assign
				e, hit, err := c.Lookup(es.Networks, 0)
				if err != nil || !hit {
					t.Fatalf("imported mix %v: hit=%v err=%v", es.Networks, hit, err)
				}
				if got := e.Use(0).Assign; !slices.EqualFunc(got, es.Assign, slices.Equal[[]int]) {
					t.Fatalf("imported mix %v deploys %v, snapshot %v", es.Networks, got, es.Assign)
				}
			}
			if n != len(first) || c.Len() != n {
				t.Fatalf("Import counted %d, cache holds %d, snapshot lists %d solved mixes", n, c.Len(), len(first))
			}
		}
	})
}
