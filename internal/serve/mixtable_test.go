package serve

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"haxconn/internal/soc"
)

// mixModel is the string-keyed cache the mix table replaced: live
// entries and scoring probes in maps by mix key, with the effectiveness
// counters the cache keeps. A live key whose entry the test has not seen
// yet maps to nil.
type mixModel struct {
	live, probes map[string]*Entry
	failure      map[string]string // every method's failure, to check repeats
	gossiped     map[string]bool   // fresh gossip imports, not yet hit

	hits, misses, probeCount, promotions, assists, warmHits int
}

// modelKey is the cache key format the model pins: the sorted networks
// joined by "+", then "|" and the objective.
func modelKey(networks []string) (string, []string) {
	canon := slices.Clone(networks)
	slices.Sort(canon)
	return strings.Join(canon, "+") + "|MinLatency", canon
}

// TestMixTableMatchesStringModel drives Lookup, Probe, ProbeAll,
// EnsureSolved and GossipSeed over randomized mixes — every length from 1
// to MaxBatch+1, repeated networks, shuffled orders, names outside the
// zoo and the odd empty mix — and checks each result against mixModel:
// entry identity, Key and Networks, the returned flags, every counter,
// and that a failing mix fails the same way each time. A mix naming a
// network outside the zoo must cost nothing: no probe and no trie slot.
func TestMixTableMatchesStringModel(t *testing.T) {
	orin := soc.Orin()
	rt, err := New(Config{Platform: orin})
	if err != nil {
		t.Fatal(err)
	}
	maxBatch := rt.cfg.MaxBatch // the platform's default dispatch width
	c, err := NewCache(CacheConfig{Platform: orin, Solve: true, SolverTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	// The donor cache supplies gossiped schedules of the right shape; a
	// mix that never resolves gets any schedule.
	donors, err := NewCache(CacheConfig{Platform: orin})
	if err != nil {
		t.Fatal(err)
	}
	anyDonor, _, err := donors.Lookup([]string{"AlexNet"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := mixModel{
		live: map[string]*Entry{}, probes: map[string]*Entry{},
		failure: map[string]string{}, gossiped: map[string]bool{},
	}
	pool := []string{"AlexNet", "SqueezeNet", "ResNet18", "MobileNet"}
	rng := rand.New(rand.NewSource(7))
	randomMix := func() []string {
		if rng.Intn(40) == 0 {
			return nil
		}
		mix := make([]string, 1+rng.Intn(maxBatch+1))
		for k := range mix {
			if rng.Intn(15) == 0 {
				mix[k] = "NoSuchNet"
			} else {
				mix[k] = pool[rng.Intn(len(pool))]
			}
		}
		return mix
	}
	foreign := func(mix []string) bool { return slices.Contains(mix, "NoSuchNet") }

	// checkEntry pins an entry's mix names and identity against the model.
	checkEntry := func(step int, op string, e *Entry, key string, canon []string, want *Entry) {
		t.Helper()
		if e == nil {
			t.Fatalf("step %d %s %s: nil entry", step, op, key)
		}
		if e.Key != key || !slices.Equal(e.Networks, canon) {
			t.Fatalf("step %d %s: entry %q %v, want %q %v", step, op, e.Key, e.Networks, key, canon)
		}
		if want != nil && e != want {
			t.Fatalf("step %d %s %s: a different entry than the model's", step, op, key)
		}
	}
	// failed checks that a failing mix fails as it did the first time.
	failed := func(step int, op string, key string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("step %d %s %s: no error", step, op, key)
		}
		if prev, ok := m.failure[op+" "+key]; ok && prev != err.Error() {
			t.Fatalf("step %d %s %s: error %q, first %q", step, op, key, err, prev)
		}
		m.failure[op+" "+key] = err.Error()
	}
	// probe applies one Probe to the model: a serial Probe, and ProbeAll
	// answers each of its mixes as one.
	probe := func(step int, op string, mix []string, e *Entry, live bool, err error) {
		t.Helper()
		key, canon := modelKey(mix)
		switch {
		case len(mix) == 0:
			if err == nil {
				t.Fatalf("step %d %s: empty mix accepted", step, op)
			}
		case foreign(mix):
			failed(step, op, key, err)
		case hasKey(m.live, key):
			if err != nil || !live {
				t.Fatalf("step %d %s %s: live mix: live=%v err=%v", step, op, key, live, err)
			}
			checkEntry(step, op, e, key, canon, m.live[key])
			m.live[key] = e
		case m.probes[key] != nil:
			if err != nil || live {
				t.Fatalf("step %d %s %s: probed mix: live=%v err=%v", step, op, key, live, err)
			}
			checkEntry(step, op, e, key, canon, m.probes[key])
		default:
			if err != nil || live {
				t.Fatalf("step %d %s %s: unseen mix: live=%v err=%v", step, op, key, live, err)
			}
			checkEntry(step, op, e, key, canon, nil)
			m.probeCount++
			m.probes[key] = e
		}
	}
	// promote moves a probed key to the live map, as every way of making
	// a probed mix live does.
	promote := func(key string) *Entry {
		e := m.probes[key]
		delete(m.probes, key)
		m.promotions++
		m.live[key] = e
		return e
	}

	for step := 0; step < 600; step++ {
		mix := randomMix()
		rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
		key, canon := modelKey(mix)
		slots := len(c.slots)
		op := rng.Intn(5)
		switch op {
		case 0:
			e, hit, err := c.Lookup(mix, float64(step))
			switch {
			case len(mix) == 0:
				if err == nil {
					t.Fatalf("step %d Lookup: empty mix accepted", step)
				}
			case foreign(mix):
				m.misses++
				failed(step, "Lookup", key, err)
			case hasKey(m.live, key):
				m.hits++
				if err != nil || !hit {
					t.Fatalf("step %d Lookup %s: live mix missed: %v", step, key, err)
				}
				checkEntry(step, "Lookup", e, key, canon, m.live[key])
				m.live[key] = e
				if m.gossiped[key] {
					delete(m.gossiped, key)
					m.warmHits++
				}
			default:
				m.misses++
				if err != nil || hit {
					t.Fatalf("step %d Lookup %s: unseen mix hit=%v err=%v", step, key, hit, err)
				}
				var want *Entry
				if m.probes[key] != nil {
					want = promote(key)
				}
				checkEntry(step, "Lookup", e, key, canon, want)
				m.live[key] = e
			}
		case 1:
			e, live, err := c.Probe(mix, float64(step))
			probe(step, "Probe", mix, e, live, err)
		case 2:
			mixes := [][]string{mix}
			for n := rng.Intn(4); n > 0; n-- {
				if rng.Intn(3) == 0 {
					mixes = append(mixes, mixes[rng.Intn(len(mixes))]) // a repeat in the wave
				} else {
					mixes = append(mixes, randomMix())
				}
			}
			entries, errs := c.ProbeAll(mixes, float64(step))
			for i, mx := range mixes {
				k, _ := modelKey(mx)
				probe(step, "ProbeAll", mx, entries[i], hasKey(m.live, k) && len(mx) > 0 && !foreign(mx), errs[i])
			}
		case 3:
			added, err := c.EnsureSolved(mix, float64(step))
			switch {
			case len(mix) == 0:
				if err == nil {
					t.Fatalf("step %d EnsureSolved: empty mix accepted", step)
				}
			case foreign(mix):
				failed(step, "EnsureSolved", key, err)
			case hasKey(m.live, key):
				// Every live entry of a solving cache without an ownership
				// partition is solved or settled already.
				if err != nil || added {
					t.Fatalf("step %d EnsureSolved %s: live mix added=%v err=%v", step, key, added, err)
				}
			case m.probes[key] != nil:
				if err != nil || !added {
					t.Fatalf("step %d EnsureSolved %s: probed mix added=%v err=%v", step, key, added, err)
				}
				promote(key)
			default:
				if err != nil || !added {
					t.Fatalf("step %d EnsureSolved %s: unseen mix added=%v err=%v", step, key, added, err)
				}
				m.assists++
				m.live[key] = nil
			}
		case 4:
			donor := anyDonor
			if len(mix) > 0 && !foreign(mix) {
				var err error
				if donor, _, err = donors.Lookup(mix, 0); err != nil {
					t.Fatal(err)
				}
			}
			added, err := c.GossipSeed(mix, donor.Naive, float64(step))
			switch {
			case len(mix) == 0:
				if err == nil {
					t.Fatalf("step %d GossipSeed: empty mix accepted", step)
				}
			case foreign(mix):
				failed(step, "GossipSeed", key, err)
			case hasKey(m.live, key):
				if err != nil || added {
					t.Fatalf("step %d GossipSeed %s: live mix added=%v err=%v", step, key, added, err)
				}
			case m.probes[key] != nil:
				if err != nil || !added {
					t.Fatalf("step %d GossipSeed %s: probed mix added=%v err=%v", step, key, added, err)
				}
				promote(key)
			default:
				if err != nil || !added {
					t.Fatalf("step %d GossipSeed %s: unseen mix added=%v err=%v", step, key, added, err)
				}
				m.live[key] = nil
				m.gossiped[key] = true
			}
		}
		// A failing mix takes no trie slot. (A ProbeAll wave, op 2, may
		// carry other mixes that do.)
		if (len(mix) == 0 || foreign(mix)) && op != 2 && len(c.slots) != slots {
			t.Fatalf("step %d: a failing mix %v added %d trie slots", step, mix, len(c.slots)-slots)
		}
		got := [...]int{c.Hits, c.Misses, c.Probes, c.Promotions, c.Assists, c.WarmHits, c.Len(), liveProbes(c)}
		want := [...]int{m.hits, m.misses, m.probeCount, m.promotions, m.assists, m.warmHits, len(m.live), len(m.probes)}
		if got != want {
			t.Fatalf("step %d: hits, misses, probes, promotions, assists, warm hits, live, live probes = %v, model %v", step, got, want)
		}
	}

	// Every length from 1 to MaxBatch+1 was live by the end, and Export
	// lists exactly the model's live keys, in key order.
	lengths := map[int]bool{}
	var keys []string
	for key := range m.live {
		keys = append(keys, key)
		lengths[strings.Count(key, "+")+1] = true
	}
	for n := 1; n <= maxBatch+1; n++ {
		if !lengths[n] {
			t.Errorf("no live mix of %d networks: widen the walk", n)
		}
	}
	slices.Sort(keys)
	var exported []string
	for _, es := range c.Export().Entries {
		k, _ := modelKey(es.Networks)
		exported = append(exported, k)
	}
	if !slices.Equal(exported, keys) {
		t.Errorf("Export lists %v, model %v", exported, keys)
	}
}

// hasKey reports whether a map holds key, whatever its value.
func hasKey[V any](m map[string]V, key string) bool {
	_, ok := m[key]
	return ok
}
