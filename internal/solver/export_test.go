package solver

import "haxconn/internal/schedule"

// LoadTable exposes branch & bound's per-accelerator load bound to the
// external admissibility test.
type LoadTable = loadTable

// NewLoadTable builds the load rows of cands as OptimizeBB does.
func NewLoadTable(prob *schedule.Problem, pr *schedule.Profile, cands [][][]int) *LoadTable {
	return newLoadTable(prob, pr, cands)
}

// Bound decides item i's candidate chosen[i] for every item in turn and
// returns the margined load bound of the complete assignment.
func (t *loadTable) Bound(chosen []int) float64 {
	b := 0.0
	for d, c := range chosen {
		b = t.push(d, c)
	}
	return b
}
