package nn

import (
	"fmt"
	"slices"
)

// Group is a contiguous run of layers scheduled as one atomic unit
// (Sec. 3.1: the smallest layer entity assignable to an accelerator).
// Start and End are inclusive layer indices into the owning Network.
type Group struct {
	Net        *Network
	Index      int
	Start, End int
}

// Layers returns the slice of layers belonging to the group.
func (g Group) Layers() []Layer { return g.Net.Layers[g.Start : g.End+1] }

// FLOPs returns the total floating-point work of the group.
func (g Group) FLOPs() float64 {
	var sum float64
	for _, l := range g.Layers() {
		sum += l.FLOPs()
	}
	return sum
}

// WeightBytes returns the parameter footprint of the group.
func (g Group) WeightBytes() int64 {
	var sum int64
	for _, l := range g.Layers() {
		sum += l.WeightBytes()
	}
	return sum
}

// InputBytes returns the activation bytes entering the group.
func (g Group) InputBytes() int64 { return g.Net.Layers[g.Start].InputBytes() }

// OutputBytes returns the activation bytes leaving the group — the tensor
// that must be flushed to shared memory on an inter-accelerator transition.
func (g Group) OutputBytes() int64 { return g.Net.Layers[g.End].OutputBytes() }

// String describes the group with its layer index range.
func (g Group) String() string {
	return fmt.Sprintf("%s[%d-%d]", g.Net.Name, g.Start, g.End)
}

// DefaultMaxGroups is the group-count cap used throughout the repository.
// The paper's GoogleNet characterization (Table 2) uses 10 groups; a low
// double-digit count keeps solver search spaces tractable while leaving
// enough transition candidates.
const DefaultMaxGroups = 12

// Groups partitions the network into at most maxGroups atomic layer groups.
//
// The initial partition cuts exactly at the builders' transition-safe points
// (operator-fusion and pipeline-reformat constraints). If that yields more
// than maxGroups groups, adjacent groups are merged greedily: each merge
// removes the cut whose crossing tensor is largest relative to the work it
// separates, keeping the cheap-transition boundaries (e.g. after poolings)
// as the surviving candidates — the behaviour Sec. 3.1/3.2 describe.
func Groups(n *Network, maxGroups int) []Group {
	if maxGroups < 1 {
		maxGroups = 1
	}
	var groups []Group
	start := 0
	for i, l := range n.Layers {
		if l.TransitionSafe {
			groups = append(groups, Group{Net: n, Start: start, End: i})
			start = i + 1
		}
	}
	if start < len(n.Layers) {
		// Validate() guarantees the last layer is transition safe, but keep a
		// defensive tail group for hand-built networks.
		groups = append(groups, Group{Net: n, Start: start, End: len(n.Layers) - 1})
	}
	// flops[i] is groups[i].FLOPs(), summed afresh only for a merged group,
	// so every score uses the same bits as summing each group every round.
	flops := make([]float64, len(groups))
	for i, g := range groups {
		flops[i] = g.FLOPs()
	}
	for len(groups) > maxGroups {
		// Remove the worst cut: the one with the largest crossing tensor per
		// unit of separated work.
		worst, worstScore := -1, -1.0
		for i := 0; i < len(groups)-1; i++ {
			cross := float64(groups[i].OutputBytes())
			work := flops[i] + flops[i+1]
			score := cross / (1 + work)
			if score > worstScore {
				worst, worstScore = i, score
			}
		}
		groups[worst].End = groups[worst+1].End
		groups = slices.Delete(groups, worst+1, worst+2)
		flops[worst] = groups[worst].FLOPs()
		flops = slices.Delete(flops, worst+1, worst+2)
	}
	for i := range groups {
		groups[i].Index = i
	}
	return groups
}
