package control

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"haxconn/internal/schedule"
	"haxconn/internal/serve"
)

// TestTenantWindowP99MatchesOracle: p99 on the window's reused sort buffer
// equals copying the last completions and sorting the copy, bit for bit,
// while the window fills, after it wraps and after a reset; and once warm
// it allocates nothing. The oracle keeps its own history, so a p99 that
// disturbed the ring would show up in later comparisons.
func TestTenantWindowP99MatchesOracle(t *testing.T) {
	const size = DefaultSLOWindow
	oracle := func(history []float64) float64 {
		if len(history) > size {
			history = history[len(history)-size:]
		}
		lats := append([]float64(nil), history...)
		sort.Float64s(lats)
		return schedule.Percentile(lats, 0.99)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTenantWindow(size)
		var history []float64
		for i := 0; i < 3*size+5; i++ {
			if i == 2*size+3 {
				w.reset()
				history = history[:0]
			}
			lat := 20 * rng.ExpFloat64()
			w.add(serve.Completion{Request: serve.Request{Network: "VGG19"}, LatencyMs: lat})
			history = append(history, lat)
			if got, want := w.p99(), oracle(history); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, completion %d (window %d of %d): p99 %v, oracle %v", seed, i, w.len(), size, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { w.p99() }); allocs != 0 {
			t.Errorf("seed %d: warm p99 made %.1f allocations, want 0", seed, allocs)
		}
	}
}
