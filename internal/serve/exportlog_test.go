package serve

import (
	"reflect"
	"strings"
	"testing"

	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// TestSettledSinceMatchesExport walks one cache through every way an
// entry goes live or settles — solved and deferred misses, deferred probes
// promoted by Lookup and by GossipSeed, stubs settled in place by
// GossipSeed and EnsureSolved, EnsureSolved on an unseen mix and on a
// probe, Import, SeedFromSchedule and Rewind. After each step a reader
// that keeps its count (SettledSince) must have read each entry Export
// marks solved exactly once, and nothing else, with Export's rows.
func TestSettledSinceMatchesExport(t *testing.T) {
	owns := func(key string) bool { return strings.HasPrefix(key, "ResNet18") }
	c := ownershipCache(t, owns)
	owner := ownershipCache(t, nil)
	donor := func(networks ...string) *schedule.Schedule {
		t.Helper()
		e, _, err := owner.Lookup(networks, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e.Best()
	}
	p, _ := soc.PlatformByName("Orin")
	other, err := NewCache(CacheConfig{Platform: p, Objective: schedule.MinMaxLatency, Solve: true, SolverTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.Lookup([]string{"GoogleNet"}, 0); err != nil {
		t.Fatal(err)
	}
	snap := other.Export()

	cursor := 0
	read := map[string]*Entry{}
	check := func(step string) {
		t.Helper()
		got, next := c.SettledSince(cursor)
		cursor = next
		for _, e := range got {
			if read[e.Key] != nil {
				t.Errorf("%s: %s read twice", step, e.Key)
			}
			read[e.Key] = e
		}
		exp := c.Export()
		solved := 0
		for _, es := range exp.Entries {
			if !es.Solved {
				continue
			}
			solved++
			key := strings.Join(es.Networks, "+") + "|" + exp.Objective
			e := read[key]
			if e == nil {
				t.Errorf("%s: Export marks %s solved, the log never listed it", step, key)
				continue
			}
			if !reflect.DeepEqual(e.Best().Assign, es.Assign) || !reflect.DeepEqual(e.Networks, es.Networks) {
				t.Errorf("%s: %s reads %v %v, Export gives %v %v", step, key, e.Networks, e.Best().Assign, es.Networks, es.Assign)
			}
		}
		if solved != len(read) {
			t.Errorf("%s: the log listed %d entries, Export marks %d solved", step, len(read), solved)
		}
	}
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(networks ...string) {
		t.Helper()
		_, _, err := c.Lookup(networks, 1)
		must(nil, err)
	}
	probe := func(networks ...string) {
		t.Helper()
		_, _, err := c.Probe(networks, 1)
		must(nil, err)
	}

	check("empty")
	lookup("VGG19", "ResNet152")
	check("deferred miss")
	lookup("ResNet18")
	check("solved miss")
	probe("VGG19")
	lookup("VGG19")
	check("deferred probe promoted by Lookup")
	probe("ResNet152")
	must(c.GossipSeed([]string{"ResNet152"}, donor("ResNet152"), 2))
	check("deferred probe promoted by GossipSeed")
	must(c.GossipSeed([]string{"VGG19", "ResNet152"}, donor("ResNet152", "VGG19"), 3))
	check("stub settled by GossipSeed")
	must(c.EnsureSolved([]string{"VGG19"}, 4))
	check("stub solved by EnsureSolved")
	must(c.EnsureSolved([]string{"ResNet18", "VGG19"}, 5))
	check("unseen mix solved by EnsureSolved")
	probe("ResNet18", "ResNet152")
	must(c.EnsureSolved([]string{"ResNet152", "ResNet18"}, 6))
	check("probe promoted by EnsureSolved")
	must(c.Import(snap))
	check("Import")
	must(c.SeedFromSchedule([]string{"ResNet50"}, donor("ResNet50"), 7))
	check("SeedFromSchedule")
	must(c.GossipSeed([]string{"MobileNet"}, donor("MobileNet"), 8))
	check("fresh GossipSeed")
	lookup("VGG16")
	lookup("VGG16", "VGG19")
	probe("ResNet34")
	check("more deferred misses")
	c.Rewind()
	check("Rewind")
	lookup("ResNet34")
	check("probe settled by Rewind, promoted by Lookup")
	if len(read) < 12 {
		t.Errorf("the walk settled only %d entries", len(read))
	}
}
