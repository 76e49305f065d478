package serve

import (
	"testing"

	"haxconn/internal/soc"
	"haxconn/internal/solver"
)

// TestProbeAllMatchesSerialProbe: ProbeAll's concurrent characterization
// must be observationally identical to a serial Probe loop — same
// entries, same Probes counter, same memoized errors — on a mix set with
// duplicates, an already-probed mix, an empty mix and a failing mix.
// Concurrency is allowed to change wall-clock only.
func TestProbeAllMatchesSerialProbe(t *testing.T) {
	newCache := func() *Cache {
		t.Helper()
		c, err := NewCache(CacheConfig{Platform: soc.Orin(), Solve: true})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mixes := [][]string{
		{"VGG19", "ResNet152"},
		{"ResNet152", "VGG19"}, // canonical duplicate of the first
		{"ResNet18"},
		nil,                    // empty mix: per-slot error
		{"NoSuchNetwork"},      // build failure: memoized error
		{"VGG19", "ResNet152"}, // duplicate again, resolved from the committed probe
		{"NoSuchNetwork"},      // duplicate failure, resolved from probeErr
	}

	serial := newCache()
	wantEntries := make([]*Entry, len(mixes))
	wantErrs := make([]error, len(mixes))
	for i, mix := range mixes {
		wantEntries[i], _, wantErrs[i] = serial.Probe(mix, 0)
	}

	batch := newCache()
	gotEntries, gotErrs := batch.ProbeAll(mixes, 0)

	if batch.Probes != serial.Probes {
		t.Errorf("ProbeAll counted %d probes, serial loop %d", batch.Probes, serial.Probes)
	}
	for i := range mixes {
		if (wantErrs[i] == nil) != (gotErrs[i] == nil) {
			t.Errorf("mix %d: serial err %v vs batch err %v", i, wantErrs[i], gotErrs[i])
			continue
		}
		if wantErrs[i] != nil {
			if wantErrs[i].Error() != gotErrs[i].Error() {
				t.Errorf("mix %d: error text differs: %q vs %q", i, wantErrs[i], gotErrs[i])
			}
			continue
		}
		w, g := wantEntries[i], gotEntries[i]
		if g == nil {
			t.Errorf("mix %d: batch returned no entry", i)
			continue
		}
		if w.Key != g.Key {
			t.Errorf("mix %d: key %q vs %q", i, w.Key, g.Key)
		}
		if w.Any == nil || g.Any == nil {
			t.Fatalf("mix %d: solving cache left a probe unsolved", i)
		}
		if w.Any.Cost != g.Any.Cost || len(w.Any.History) != len(g.Any.History) {
			t.Errorf("mix %d: solve outcome differs: cost %.6f/%d incumbents vs %.6f/%d",
				i, w.Any.Cost, len(w.Any.History), g.Any.Cost, len(g.Any.History))
		}
	}
	// Duplicate slots must share one entry, exactly like repeated Probes do.
	if gotEntries[0] != gotEntries[5] {
		t.Error("duplicate mixes resolved to different entries")
	}
	if gotErrs[4] == nil || gotErrs[6] == nil || gotErrs[4].Error() != gotErrs[6].Error() {
		t.Error("duplicate failing mixes must share the memoized error")
	}
}

// TestDeployableReplaysAtNodesPerMs pins the cache's replay clock: the
// incumbent found after N search nodes deploys N/solver.NodesPerMs virtual
// milliseconds, stretched by SolverTimeScale, after the miss, and not a
// nanosecond sooner. The instants are dyadic, so the arithmetic is exact.
func TestDeployableReplaysAtNodesPerMs(t *testing.T) {
	const scale = 2
	c, err := NewCache(CacheConfig{Platform: soc.Orin(), Solve: true, SolverTimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := c.Lookup([]string{"VGG19", "ResNet152"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	landed := 0
	for _, inc := range e.Any.History {
		if inc.Nodes == 0 {
			continue
		}
		at := float64(inc.Nodes) / solver.NodesPerMs * scale
		if got, want := e.Deployable(at), e.Any.ScheduleAtNodes(inc.Nodes); got != want {
			t.Errorf("at %g ms: deployed %v, want the incumbent of node %d", at, got.Assign, inc.Nodes)
		}
		if got, want := e.Deployable(at-1e-6), e.Any.ScheduleAtNodes(inc.Nodes-1); got != want {
			t.Errorf("just before %g ms: deployed %v, want the incumbent before node %d", at, got.Assign, inc.Nodes)
		}
		landed++
	}
	if landed < 2 {
		t.Fatalf("%d incumbents after node 0; the mix should improve more than once", landed)
	}
}
