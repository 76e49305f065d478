package contention

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestFairShareUnderCapacity(t *testing.T) {
	alloc := FairShare([]float64{10, 20, 30}, 100)
	for i, want := range []float64{10, 20, 30} {
		if alloc[i] != want {
			t.Errorf("alloc[%d] = %g, want %g (no contention)", i, alloc[i], want)
		}
	}
}

func TestFairShareOverCapacity(t *testing.T) {
	// Demands 60+60 against capacity 100: each gets 50.
	alloc := FairShare([]float64{60, 60}, 100)
	if alloc[0] != 50 || alloc[1] != 50 {
		t.Errorf("alloc = %v, want [50 50]", alloc)
	}
	// Small demand satisfied fully, big one takes the rest.
	alloc = FairShare([]float64{10, 200}, 100)
	if alloc[0] != 10 || alloc[1] != 90 {
		t.Errorf("alloc = %v, want [10 90]", alloc)
	}
}

func TestFairShareEdges(t *testing.T) {
	if got := FairShare(nil, 100); len(got) != 0 {
		t.Errorf("nil demands: %v", got)
	}
	alloc := FairShare([]float64{5, 5}, 0)
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Errorf("zero capacity: %v", alloc)
	}
}

// Properties of max-min fairness: allocations never exceed demand, never
// exceed capacity in total, and the full capacity is used whenever total
// demand exceeds it.
func TestFairShareProperties(t *testing.T) {
	f := func(raw []uint16, capRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		demands := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			demands[i] = float64(r%1000) / 7
			total += demands[i]
		}
		capacity := float64(capRaw%2000)/13 + 1
		alloc := FairShare(demands, capacity)
		var sum float64
		for i := range alloc {
			if alloc[i] > demands[i]+1e-9 || alloc[i] < 0 {
				return false
			}
			sum += alloc[i]
		}
		if sum > capacity+1e-9 {
			return false
		}
		if total > capacity && sum < capacity-1e-6 {
			return false // capacity must be exhausted under contention
		}
		if total <= capacity && math.Abs(sum-total) > 1e-9 {
			return false // no one throttled without contention
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSlowdown(t *testing.T) {
	if s := Slowdown(10, 1, 10); s != 1 {
		t.Errorf("full allocation: slowdown %g, want 1", s)
	}
	if s := Slowdown(10, 1, 5); s != 2 {
		t.Errorf("half allocation, mu=1: slowdown %g, want 2", s)
	}
	if s := Slowdown(10, 0.5, 5); s != 1.5 {
		t.Errorf("half allocation, mu=0.5: slowdown %g, want 1.5", s)
	}
	if s := Slowdown(0, 1, 0); s != 1 {
		t.Errorf("zero demand: slowdown %g, want 1", s)
	}
	if s := Slowdown(10, 1, 0); !math.IsInf(s, 1) {
		t.Errorf("zero allocation: slowdown %g, want +Inf", s)
	}
}

func TestNoneModel(t *testing.T) {
	m := None{}
	if m.SlowdownFor(100, 1, 100) != 1 {
		t.Error("None must always predict 1")
	}
	if m.Name() != "none" {
		t.Errorf("name %q", m.Name())
	}
}

func TestOracleMatchesArbitration(t *testing.T) {
	o := Oracle{SatBW: 100}
	// 60 vs 60 on 100: alloc 50, mu=1 -> slowdown 1.2? No: 60/50 = 1.2.
	if got := o.SlowdownFor(60, 1, 60); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("oracle slowdown = %g, want 1.2", got)
	}
	if got := o.SlowdownFor(10, 1, 20); got != 1 {
		t.Errorf("uncontended oracle slowdown = %g, want 1", got)
	}
}

func TestFitPCCSErrors(t *testing.T) {
	if _, err := FitPCCS(0, 8); err == nil {
		t.Error("zero bandwidth should fail")
	}
	if _, err := FitPCCS(100, 1); err == nil {
		t.Error("single sample should fail")
	}
	// NaN used to fit without error and then panic in bracket on the first
	// query; +Inf fitted a model whose slowdowns were NaN.
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FitPCCS(bw, 16); err == nil {
			t.Errorf("FitPCCS(%g) should fail", bw)
		}
	}
}

// FuzzFitPCCS: for any saturation bandwidth, FitPCCS either fails or fits
// a model whose slowdown is finite and at least 1 for every demand pair —
// negative, NaN and infinite demands included — and every memory intensity
// in [0, 1] or NaN.
func FuzzFitPCCS(f *testing.F) {
	f.Add(100.0, 50.0, 0.5, 80.0)
	f.Add(math.NaN(), 1.0, 1.0, 1.0)
	f.Add(math.Inf(1), 1.0, 1.0, 1.0)
	f.Add(5e-324, 5e-324, 1.0, 1e308)
	f.Add(math.MaxFloat64, math.MaxFloat64, 1.0, math.MaxFloat64)
	// NaN demands used to index one past the grid and panic; a NaN
	// intensity used to predict NaN.
	f.Add(100.0, math.NaN(), 1.0, 10.0)
	f.Add(100.0, 10.0, 1.0, math.NaN())
	f.Add(100.0, 10.0, math.NaN(), 10.0)
	f.Add(100.0, math.Inf(1), 0.5, math.Inf(1))
	f.Add(100.0, math.Inf(-1), 0.5, math.Inf(-1))
	f.Fuzz(func(t *testing.T, satBW, demand, mu, external float64) {
		m, err := FitPCCS(satBW, 16)
		if err != nil {
			return
		}
		if !(mu >= 0 && mu <= 1) && !math.IsNaN(mu) {
			return
		}
		if s := m.SlowdownFor(demand, mu, external); math.IsNaN(s) || math.IsInf(s, 0) || s < 1 {
			t.Fatalf("FitPCCS(%g).SlowdownFor(%g, %g, %g) = %g, want finite and >= 1", satBW, demand, mu, external, s)
		}
	})
}

func TestPCCSAccuracy(t *testing.T) {
	m, err := FitPCCS(100, 16)
	if err != nil {
		t.Fatal(err)
	}
	if e := m.ValidationError(25); e > 0.08 {
		t.Errorf("PCCS max relative error %.3f, want <= 0.08", e)
	}
}

func TestPCCSMonotoneInExternal(t *testing.T) {
	m, err := FitPCCS(100, 12)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for ext := 0.0; ext <= 200; ext += 5 {
		s := m.SlowdownFor(50, 1, ext)
		if s < prev-1e-9 {
			t.Fatalf("slowdown decreased with external demand at ext=%g: %g < %g", ext, s, prev)
		}
		if s < 1 {
			t.Fatalf("slowdown %g < 1", s)
		}
		prev = s
	}
}

func TestPCCSNoSlowdownWithoutContention(t *testing.T) {
	m, err := FitPCCS(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s := m.SlowdownFor(40, 0.8, 0); s != 1 {
		t.Errorf("no external demand: slowdown %g, want 1", s)
	}
	if s := m.SlowdownFor(0, 0.8, 120); s != 1 {
		t.Errorf("no own demand: slowdown %g, want 1", s)
	}
	if s := m.SlowdownFor(40, 0, 120); s != 1 {
		t.Errorf("zero intensity: slowdown %g, want 1", s)
	}
}

// Property: PCCS predictions are finite, >= 1, and scale with memory
// intensity (higher mu, higher slowdown under contention).
func TestPCCSProperties(t *testing.T) {
	m, err := FitPCCS(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dRaw, eRaw, muRaw uint16) bool {
		d := float64(dRaw%150) + 1
		e := float64(eRaw % 250)
		mu := float64(muRaw%100) / 100
		s := m.SlowdownFor(d, mu, e)
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 1 {
			return false
		}
		sFull := m.SlowdownFor(d, 1, e)
		return sFull >= s-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBracketClamps(t *testing.T) {
	grid := []float64{0, 10, 20}
	if i0, i1, f := bracket(grid, 0.1, -5); i0 != 0 || i1 != 0 || f != 0 {
		t.Errorf("below grid: %d %d %g", i0, i1, f)
	}
	if i0, i1, f := bracket(grid, 0.1, 25); i0 != 2 || i1 != 2 || f != 0 {
		t.Errorf("above grid: %d %d %g", i0, i1, f)
	}
	if i0, i1, f := bracket(grid, 0.1, 15); i0 != 1 || i1 != 2 || math.Abs(f-0.5) > 1e-12 {
		t.Errorf("mid grid: %d %d %g", i0, i1, f)
	}
}

// searchBracket is bracket as it was written with a binary search; it is
// the oracle for the O(1) lookup.
func searchBracket(grid []float64, x float64) (int, int, float64) {
	n := len(grid)
	if x <= grid[0] {
		return 0, 0, 0
	}
	if x >= grid[n-1] {
		return n - 1, n - 1, 0
	}
	hi := sort.SearchFloat64s(grid, x)
	lo := hi - 1
	t := (x - grid[lo]) / (grid[hi] - grid[lo])
	return lo, hi, t
}

// The O(1) bracket returns what the binary search returns, bit for bit, at
// every knot of both axes, one ulp either side of it and midway to the
// next, for 2 to 64 samples per axis and several bandwidths.
func TestBracketMatchesBinarySearch(t *testing.T) {
	for _, satBW := range []float64{1, 100, 137.5, 204.8, 1e-3, 3e7} {
		for n := 2; n <= 64; n++ {
			m, err := FitPCCS(satBW, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, ax := range []struct {
				grid []float64
				inv  float64
			}{{m.ownGrid, m.ownInv}, {m.extGrid, m.extInv}} {
				for k, knot := range ax.grid {
					xs := []float64{knot, math.Nextafter(knot, math.Inf(-1)), math.Nextafter(knot, math.Inf(1))}
					if k+1 < len(ax.grid) {
						xs = append(xs, (knot+ax.grid[k+1])/2)
					}
					for _, x := range xs {
						lo, hi, f := bracket(ax.grid, ax.inv, x)
						wlo, whi, wf := searchBracket(ax.grid, x)
						if lo != wlo || hi != whi || math.Float64bits(f) != math.Float64bits(wf) {
							t.Fatalf("satBW %g, %d samples, x %v: bracket %d %d %v, binary search %d %d %v", satBW, n, x, lo, hi, f, wlo, whi, wf)
						}
					}
				}
			}
		}
	}
}
