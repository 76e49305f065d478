package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile mirrors schedule.Percentile's nearest-rank rule.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Seeded latency-like distributions: the accuracy bound must hold on the
// shapes the serving stack actually produces (bursty exponential tails,
// narrow periodic clusters, heavy lognormal tails).
func testDistributions(n int) map[string][]float64 {
	dists := map[string][]float64{}

	rng := rand.New(rand.NewSource(1))
	exp := make([]float64, n)
	for i := range exp {
		exp[i] = 5 + rng.ExpFloat64()*40 // Poisson-arrival queueing delays
	}
	dists["exponential"] = exp

	rng = rand.New(rand.NewSource(2))
	per := make([]float64, n)
	for i := range per {
		per[i] = 12 + float64(i%7)*3 + rng.Float64() // periodic arrivals, tight cluster
	}
	dists["periodic"] = per

	rng = rand.New(rand.NewSource(3))
	logn := make([]float64, n)
	for i := range logn {
		logn[i] = math.Exp(3 + 0.8*rng.NormFloat64()) // heavy-tailed service times
	}
	dists["lognormal"] = logn

	return dists
}

func TestSketchQuantileAccuracy(t *testing.T) {
	const n = 20000
	for name, vals := range testDistributions(n) {
		s := NewSketch()
		for _, v := range vals {
			s.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1.0} {
			got, want := s.Quantile(q), exactQuantile(sorted, q)
			if re := relErr(got, want); re > 0.01 {
				t.Errorf("%s q=%v: sketch %v vs exact %v (rel err %.4f > 1%%)",
					name, q, got, want, re)
			}
		}
		if s.Count() != n {
			t.Errorf("%s: Count = %d, want %d", name, s.Count(), n)
		}
		var sum, max float64
		max = math.Inf(-1)
		for _, v := range vals {
			sum += v
			if v > max {
				max = v
			}
		}
		if math.Abs(s.Sum()-sum) > 1e-6*sum {
			t.Errorf("%s: Sum = %v, want %v", name, s.Sum(), sum)
		}
		if s.Max() != max {
			t.Errorf("%s: Max = %v, want %v (must be exact)", name, s.Max(), max)
		}
		if s.Min() != sorted[0] {
			t.Errorf("%s: Min = %v, want %v (must be exact)", name, s.Min(), sorted[0])
		}
	}
}

func TestSketchDeterminism(t *testing.T) {
	vals := testDistributions(5000)["exponential"]
	run := func() []float64 {
		s := NewSketch()
		for _, v := range vals {
			s.Add(v)
		}
		out := []float64{}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			out = append(out, s.Quantile(q))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("quantile %d differs across runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSketchConstantMemory(t *testing.T) {
	s := NewSketch()
	base := s.MemoryBytes()
	if base == 0 {
		t.Fatal("MemoryBytes = 0")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		s.Add(rng.ExpFloat64() * 100)
	}
	if got := s.MemoryBytes(); got != base {
		t.Errorf("memory grew with observations: %d -> %d bytes", base, got)
	}
	if s.Count() != 100000 {
		t.Errorf("Count = %d, want 100000", s.Count())
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := NewSketch()
	if s.Quantile(0.5) != 0 || s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Error("empty sketch must report zeros")
	}

	// Negative and NaN observations are ignored.
	s.Add(-1)
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Errorf("invalid values counted: Count = %d", s.Count())
	}

	// Single observation: every quantile is that value exactly (clamped
	// to the tracked min/max).
	s.Add(42.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42.5 {
			t.Errorf("single-value q=%v = %v, want 42.5", q, got)
		}
	}

	// Zero and sub-range values land in the underflow bucket but keep
	// exact min.
	s2 := NewSketch()
	s2.Add(0)
	s2.Add(1e-9)
	if s2.Count() != 2 || s2.Min() != 0 {
		t.Errorf("underflow handling: count=%d min=%v", s2.Count(), s2.Min())
	}

	// Values beyond the top of the range clamp to the exact max.
	s3 := NewSketch()
	s3.Add(5e8)
	if got := s3.Quantile(0.99); got != 5e8 {
		t.Errorf("overflow clamp: q99 = %v, want 5e8", got)
	}

	// The bucket ratio is (1+α)/(1−α) rounded in float64 arithmetic; the
	// constant expression rounds to the next float up (…a1), which moves
	// bucket edges and sketch-mode percentiles.
	if got := math.Float64bits(sketchGamma); got != 0x3ff0292a73c765a0 {
		t.Errorf("bucket ratio bits %#x, want 0x3ff0292a73c765a0", got)
	}
}

// TestSketchMerge: sketches fed the parts of a stream merge into one that
// answers every quantile, the count, min and max exactly as a sketch fed
// the whole stream; the sum agrees to rounding.
func TestSketchMerge(t *testing.T) {
	for name, vals := range testDistributions(3000) {
		whole := NewSketch()
		for _, v := range vals {
			whole.Add(v)
		}
		merged := NewSketch()
		for _, cut := range [][2]int{{0, 0}, {0, 700}, {700, 701}, {701, 2500}, {2500, 3000}} {
			part := NewSketch()
			for _, v := range vals[cut[0]:cut[1]] {
				part.Add(v)
			}
			merged.Merge(part)
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
			if got, want := merged.Quantile(q), whole.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: merged q%.2f = %v, whole-stream sketch %v", name, q, got, want)
			}
		}
		if merged.Count() != whole.Count() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Errorf("%s: merged count/min/max %d/%v/%v, whole %d/%v/%v", name,
				merged.Count(), merged.Min(), merged.Max(), whole.Count(), whole.Min(), whole.Max())
		}
		if relErr(merged.Sum(), whole.Sum()) > 1e-12 {
			t.Errorf("%s: merged sum %v, whole %v", name, merged.Sum(), whole.Sum())
		}
	}
}
