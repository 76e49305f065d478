// Package contention models the slowdown accelerators experience when they
// share a memory controller (Sec. 3.3 of the paper).
//
// Two components live here:
//
//   - FairShare: the ground-truth EMC arbitration used by the simulator —
//     max-min fair allocation of the saturation bandwidth among concurrent
//     demands.
//
//   - Model: the processor-centric slowdown predictors used by schedulers.
//     PCCS is a piecewise-linear model fitted to co-run samples (the paper
//     builds on Xu et al., MICRO'21); Oracle applies the arbitration
//     equations directly; None predicts no slowdown (the contention-unaware
//     ablation and the Herald/H2H baselines).
//
// The deliberate gap between ground truth and the fitted model reproduces
// the prediction error that the paper's epsilon slack (Eq. 9) exists to
// absorb.
package contention

import (
	"fmt"
	"math"
	"slices"
)

// FairShare allocates capacity among demands with max-min fairness: no
// consumer receives more than it demands, unmet capacity is split evenly
// among still-hungry consumers. The returned slice is parallel to demands.
func FairShare(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	FairShareInto(demands, capacity, alloc)
	return alloc
}

// FairShareInto is FairShare writing the allocation into out, which must
// be at least as long as demands and must not overlap it. It allocates
// nothing for up to fairShareStack consumers.
// Consumers are served in ascending demand order, equal demands in the
// order sort.Slice leaves them (slices.SortFunc runs the same pattern-
// defeating quicksort), so every share matches FairShare's bit for bit.
func FairShareInto(demands []float64, capacity float64, out []float64) {
	out = out[:len(demands)]
	clear(out)
	if capacity <= 0 || len(demands) == 0 {
		return
	}
	// Sort indices by demand ascending; satisfy small demands first.
	var buf [fairShareStack]int
	idx := buf[:0]
	if len(demands) > len(buf) {
		idx = make([]int, 0, len(demands))
	}
	for i := range demands {
		idx = append(idx, i)
	}
	slices.SortFunc(idx, func(a, b int) int {
		if demands[a] < demands[b] {
			return -1
		}
		return 0
	})
	remaining := capacity
	for pos, i := range idx {
		share := remaining / float64(len(idx)-pos)
		give := math.Min(demands[i], share)
		if give < 0 {
			give = 0
		}
		out[i] = give
		remaining -= give
	}
}

// fairShareStack is how many consumers FairShareInto sorts in a stack
// buffer: every accelerator of a platform plus a few background demands.
const fairShareStack = 16

// Slowdown converts a bandwidth allocation into an execution slowdown for a
// task with the given demand and memory intensity mu (fraction of its
// standalone time bound by memory): the compute portion is unaffected, the
// memory portion stretches by demand/allocation.
func Slowdown(demand, mu, alloc float64) float64 {
	if demand <= 0 || mu <= 0 {
		return 1
	}
	if alloc >= demand {
		return 1
	}
	if alloc <= 0 {
		return math.Inf(1)
	}
	return (1 - mu) + mu*demand/alloc
}

// Model predicts the slowdown of one task given its own standalone demand
// (GB/s), its memory intensity, and the cumulative external demand from
// concurrently running tasks on other accelerators.
type Model interface {
	// SlowdownFor returns a multiplicative slowdown >= 1.
	SlowdownFor(demand, memIntensity, externalDemand float64) float64
	// Name identifies the model in reports.
	Name() string
}

// None is the contention-unaware model: it always predicts slowdown 1.
// Baselines that ignore shared memory (Herald, H2H, Mensa) and the
// no-contention ablation use it.
type None struct{}

// SlowdownFor always returns 1.
func (None) SlowdownFor(_, _, _ float64) float64 { return 1 }

// Name returns "none".
func (None) Name() string { return "none" }

// Oracle applies the arbitration equations exactly, treating the external
// demand as a single aggregate competitor. It is the upper bound on what a
// fitted model can achieve.
type Oracle struct {
	// SatBW is the saturation bandwidth of the platform (soc.Platform.SatBW).
	SatBW float64
}

// SlowdownFor computes the slowdown under two-party max-min arbitration.
func (o Oracle) SlowdownFor(demand, mu, external float64) float64 {
	alloc := FairShare([]float64{demand, external}, o.SatBW)
	return Slowdown(demand, mu, alloc[0])
}

// Name returns "oracle".
func (o Oracle) Name() string { return "oracle" }

// PCCS is a processor-centric piecewise-linear slowdown model: for a grid
// of own-demand levels it stores slowdown as a piecewise-linear function of
// external demand, fitted from co-run samples; queries bilinearly
// interpolate. Memory intensity is folded in analytically (the processor-
// centric model predicts the stretch of the memory-bound fraction). A
// fitted model is immutable, so goroutines may share one.
type PCCS struct {
	satBW   float64
	ownGrid []float64 // own-demand knots, ascending and evenly spaced from 0
	extGrid []float64 // external-demand knots, ascending and evenly spaced from 0
	// ownInv and extInv are the inverses of the grids' spacings, so a
	// query finds its knots in O(1) (bracket).
	ownInv, extInv float64
	stretch        [][]float64 // stretch[i][j]: memory-portion stretch at ownGrid[i], extGrid[j]
	fitted         bool
}

// FitPCCS builds a PCCS model for a platform saturation bandwidth by
// sampling synthetic co-runs on a demand grid — the decoupled step that
// replaces exhaustive pairwise layer profiling (Sec. 3.3). samplesPerAxis
// controls grid resolution (the paper's profiling-budget knob); 8 already
// yields <2% error against the arbitration ground truth.
func FitPCCS(satBW float64, samplesPerAxis int) (*PCCS, error) {
	if !(satBW > 0) || math.IsInf(satBW, 1) {
		return nil, fmt.Errorf("contention: saturation bandwidth %g is not positive and finite", satBW)
	}
	if samplesPerAxis < 2 {
		return nil, fmt.Errorf("contention: need at least 2 samples per axis, got %d", samplesPerAxis)
	}
	m := &PCCS{satBW: satBW, ownInv: float64(samplesPerAxis-1) / satBW, extInv: float64(samplesPerAxis-1) / (2 * satBW)}
	for i := 0; i < samplesPerAxis; i++ {
		frac := float64(i) / float64(samplesPerAxis-1)
		m.ownGrid = append(m.ownGrid, frac*satBW)
		// External demand can exceed the saturation point (multiple
		// co-runners); cover up to 2x.
		m.extGrid = append(m.extGrid, frac*2*satBW)
	}
	m.stretch = make([][]float64, len(m.ownGrid))
	for i, own := range m.ownGrid {
		m.stretch[i] = make([]float64, len(m.extGrid))
		for j, ext := range m.extGrid {
			alloc := FairShare([]float64{own, ext}, satBW)
			s := 1.0
			if own > 0 && alloc[0] > 0 {
				s = own / alloc[0] // stretch of the memory-bound portion
			}
			m.stretch[i][j] = s
		}
	}
	m.fitted = true
	return m, nil
}

// SlowdownFor predicts the slowdown via bilinear interpolation on the
// fitted stretch surface. A demand, intensity or external demand that is
// not positive — NaN included — predicts no slowdown.
func (m *PCCS) SlowdownFor(demand, mu, external float64) float64 {
	if !m.fitted || !(demand > 0) || !(mu > 0) || !(external > 0) {
		return 1
	}
	st := m.interp(demand, external)
	if st < 1 {
		st = 1
	}
	return (1 - mu) + mu*st
}

func (m *PCCS) interp(own, ext float64) float64 {
	i0, i1, ti := bracket(m.ownGrid, m.ownInv, own)
	j0, j1, tj := bracket(m.extGrid, m.extInv, ext)
	a := m.stretch[i0][j0]*(1-tj) + m.stretch[i0][j1]*tj
	b := m.stretch[i1][j0]*(1-tj) + m.stretch[i1][j1]*tj
	return a*(1-ti) + b*ti
}

// bracket finds grid neighbours of x and the interpolation fraction,
// clamping outside the grid. The grid's knots are evenly spaced from 0,
// and inv is the inverse of their spacing: x*inv guesses the upper
// neighbour, and stepping against the stored knots corrects the guess to
// the first knot at or above x, the index sort.SearchFloat64s returns.
func bracket(grid []float64, inv, x float64) (int, int, float64) {
	n := len(grid)
	if x <= grid[0] {
		return 0, 0, 0
	}
	if x >= grid[n-1] {
		return n - 1, n - 1, 0
	}
	hi := n - 1
	if f := x * inv; f < float64(n-2) {
		hi = int(f) + 1
	}
	for hi > 1 && grid[hi-1] >= x {
		hi--
	}
	for hi < n-1 && grid[hi] < x {
		hi++
	}
	lo := hi - 1
	t := (x - grid[lo]) / (grid[hi] - grid[lo])
	return lo, hi, t
}

// Name returns "pccs".
func (m *PCCS) Name() string { return "pccs" }

// ValidationError measures the maximum relative error of the fitted model
// against the arbitration ground truth on a dense off-grid sample set.
func (m *PCCS) ValidationError(points int) float64 {
	oracle := Oracle{SatBW: m.satBW}
	worst := 0.0
	for i := 1; i <= points; i++ {
		for j := 1; j <= points; j++ {
			own := m.satBW * float64(i) / float64(points+1)
			ext := 2 * m.satBW * float64(j) / float64(points+1)
			for _, mu := range []float64{0.25, 0.5, 1.0} {
				want := oracle.SlowdownFor(own, mu, ext)
				got := m.SlowdownFor(own, mu, ext)
				if e := math.Abs(got-want) / want; e > worst {
					worst = e
				}
			}
		}
	}
	return worst
}
