package profiler

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"haxconn/internal/nn"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// resetMemo empties the process-wide memo, so the next Characterize
// computes every table afresh.
func resetMemo() {
	memo.Lock()
	defer memo.Unlock()
	memo.platforms = nil
}

func oneNet(p *soc.Platform, net string) *schedule.Problem {
	return &schedule.Problem{Platform: p, Items: []schedule.Item{{Net: nn.MustByName(net)}}}
}

// freshProfile characterizes from an empty memo.
func freshProfile(t testing.TB, prob *schedule.Problem, opts Options) *schedule.Profile {
	t.Helper()
	resetMemo()
	pr, err := Characterize(prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// sameBits reports the first difference between two profiles' groups,
// Allowed and tables, comparing floats by their bits; "" means none.
func sameBits(a, b *schedule.Profile) string {
	if !slices.Equal(a.Allowed, b.Allowed) {
		return fmt.Sprintf("Allowed %v != %v", a.Allowed, b.Allowed)
	}
	if len(a.Groups) != len(b.Groups) {
		return fmt.Sprintf("%d items != %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if len(a.Groups[i]) != len(b.Groups[i]) {
			return fmt.Sprintf("item %d: %d groups != %d", i, len(a.Groups[i]), len(b.Groups[i]))
		}
		for g, ga := range a.Groups[i] {
			if gb := b.Groups[i][g]; ga != gb {
				return fmt.Sprintf("item %d group %d: %v != %v", i, g, ga, gb)
			}
			if a.OutBytes[i][g] != b.OutBytes[i][g] {
				return fmt.Sprintf("item %d group %d: OutBytes differ", i, g)
			}
			for acc := range a.Exec[i][g] {
				ea, eb := a.Exec[i][g][acc], b.Exec[i][g][acc]
				for _, f := range [][2]float64{
					{ea.LatencyMs, eb.LatencyMs}, {ea.DemandGBps, eb.DemandGBps}, {ea.MemIntensity, eb.MemIntensity},
					{a.TransOutMs[i][g][acc], b.TransOutMs[i][g][acc]}, {a.TransInMs[i][g][acc], b.TransInMs[i][g][acc]},
				} {
					if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
						return fmt.Sprintf("item %d group %d accel %d: %v != %v", i, g, acc, f[0], f[1])
					}
				}
			}
		}
	}
	return ""
}

// TestMemoizedMatchesFresh: on every platform, zoo network, group cap and
// demand mode, the first and the repeated call on a memo shared by every
// other key return the bits an empty memo computes.
func TestMemoizedMatchesFresh(t *testing.T) {
	caps := []int{0, 1, 2, 3, 5, 8, 12, 20, 64}
	type key struct {
		prob *schedule.Problem
		opts Options
	}
	var keys []key
	for _, p := range soc.Platforms() {
		for _, name := range nn.Names() {
			for _, c := range caps {
				for _, exact := range []bool{false, true} {
					keys = append(keys, key{oneNet(p, name), Options{MaxGroups: c, ExactDSADemand: exact}})
				}
			}
		}
	}
	fresh := make([]*schedule.Profile, len(keys))
	for i, k := range keys {
		fresh[i] = freshProfile(t, k.prob, k.opts)
	}
	resetMemo()
	for _, call := range []string{"first", "repeated"} {
		for i, k := range keys {
			pr, err := Characterize(k.prob, k.opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameBits(pr, fresh[i]); d != "" {
				t.Fatalf("%s call, %s %s %+v: %s", call, k.prob.Platform.Name, k.prob.Items[0].Net.Name, k.opts, d)
			}
		}
	}
	// Caps 0 and 12 resolve to one key; every other key has its own entry.
	if len(memo.platforms) != len(soc.Platforms()) {
		t.Errorf("memo holds %d platforms, want %d", len(memo.platforms), len(soc.Platforms()))
	}
	for _, pt := range memo.platforms {
		if want := len(nn.Names()) * (len(caps) - 1) * 2; len(pt.nets) != want {
			t.Errorf("memo holds %d tables for one platform, want %d", len(pt.nets), want)
		}
	}
}

// TestCharacterizeConcurrent: goroutines characterizing the same and
// different networks from a cold memo all get the fresh tables. CI runs it
// under -race.
func TestCharacterizeConcurrent(t *testing.T) {
	names := []string{"ResNet152", "GoogleNet", "ResNet152", "VGG19", "ResNet152", "DenseNet", "Inc-res-v2", "GoogleNet"}
	got := make([]*schedule.Profile, len(names))
	errs := make([]error, len(names))
	resetMemo()
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			got[i], errs[i] = Characterize(testProblem("Orin", name), Options{})
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if d := sameBits(got[i], freshProfile(t, testProblem("Orin", name), Options{})); d != "" {
			t.Errorf("goroutine %d (%s): %s", i, name, d)
		}
	}
}

// TestMemoKeysPlatformByValue: the memo keys a platform by its parameters,
// not its pointer or name. Fresh copies of one platform share an entry;
// a platform renamed to another's name keeps its own tables.
func TestMemoKeysPlatformByValue(t *testing.T) {
	resetMemo()
	for i := 0; i < 2; i++ {
		if _, err := Characterize(testProblem("Orin", "GoogleNet"), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(memo.platforms); n != 1 {
		t.Fatalf("two copies of Orin made %d memo entries, want 1", n)
	}
	nx := soc.OrinNX()
	nx.Name = "Orin"
	got, err := Characterize(oneNet(nx, "GoogleNet"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameBits(got, freshProfile(t, oneNet(nx, "GoogleNet"), Options{})); d != "" {
		t.Errorf("OrinNX renamed Orin: %s", d)
	}
	if sameBits(got, freshProfile(t, testProblem("Orin", "GoogleNet"), Options{})) == "" {
		t.Error("OrinNX renamed Orin got Orin's tables")
	}
}

// BenchmarkCharacterizeCold characterizes every zoo network on every
// platform from an empty memo: the offline profiling cost the memo pays
// once per process.
func BenchmarkCharacterizeCold(b *testing.B) {
	var probs []*schedule.Problem
	for _, p := range soc.Platforms() {
		for _, name := range nn.Names() {
			probs = append(probs, oneNet(p, name))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetMemo()
		for _, prob := range probs {
			if _, err := Characterize(prob, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
