// Package baselines implements the five scheduling baselines the paper
// compares against (Sec. 5): GPU-only, naive GPU&DSA, Mensa, Herald and
// H2H. Each reproduces the published decision procedure — and, crucially,
// its blind spot: none of them model shared-memory contention, which is
// why HaX-CoNN beats them on the ground-truth simulator.
package baselines

import (
	"math"

	"haxconn/internal/schedule"
)

// GPUOnly maps every group of every item to the GPU (baseline 1: the
// fastest single accelerator, leaving the DSA idle).
func GPUOnly(pr *schedule.Profile) *schedule.Schedule {
	return schedule.Uniform(pr, gpuIndex(pr))
}

// NaiveConcurrent maps whole networks round-robin across the allowed
// accelerators: item 0 on the GPU, item 1 on the DSA, and so on
// (baseline 2: non-collaborative GPU & DSA, Case 2 of Fig. 1).
func NaiveConcurrent(pr *schedule.Profile) *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(pr.Groups))}
	for i := range pr.Groups {
		a := pr.Allowed[i%len(pr.Allowed)]
		s.Assign[i] = make([]int, pr.NumGroups(i))
		for g := range s.Assign[i] {
			s.Assign[i][g] = a
		}
	}
	return s
}

// Mensa schedules each network independently with a greedy per-group
// choice: the accelerator minimizing the group's execution time plus the
// immediate transition cost from the previous group's placement. Greedy
// and single-DNN: it cannot anticipate future transitions or co-runner
// contention (the failure modes Sec. 5.1 observes).
func Mensa(pr *schedule.Profile) *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(pr.Groups))}
	for i := range pr.Groups {
		row := make([]int, pr.NumGroups(i))
		for g := range row {
			best, bestCost := pr.Allowed[0], math.Inf(1)
			for _, a := range pr.Allowed {
				cost := pr.Exec[i][g][a].LatencyMs
				if g > 0 && row[g-1] != a {
					cost += pr.TransOutMs[i][g-1][row[g-1]] + pr.TransInMs[i][g][a]
				}
				if cost < bestCost {
					best, bestCost = a, cost
				}
			}
			row[g] = best
		}
		s.Assign[i] = row
	}
	return s
}

// Herald balances accumulated compute load across accelerators at group
// granularity, ignoring transition costs and contention entirely: each
// group goes to the accelerator whose queue finishes it earliest under a
// static no-contention estimate.
func Herald(pr *schedule.Profile) *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(pr.Groups))}
	load := map[int]float64{}
	// Interleave items group-by-group, approximating Herald's joint
	// dataflow mapping over concurrently resident networks.
	maxGroups := 0
	for i := range pr.Groups {
		s.Assign[i] = make([]int, pr.NumGroups(i))
		if pr.NumGroups(i) > maxGroups {
			maxGroups = pr.NumGroups(i)
		}
	}
	for g := 0; g < maxGroups; g++ {
		for i := range pr.Groups {
			if g >= pr.NumGroups(i) {
				continue
			}
			best, bestFinish := pr.Allowed[0], math.Inf(1)
			for _, a := range pr.Allowed {
				finish := load[a] + pr.Exec[i][g][a].LatencyMs
				if finish < bestFinish {
					best, bestFinish = a, finish
				}
			}
			s.Assign[i][g] = best
			load[best] += pr.Exec[i][g][best].LatencyMs
		}
	}
	return s
}

// H2H is transition-aware but contention-unaware: each network is mapped
// by dynamic programming over (group, accelerator) states minimizing
// execution plus transition costs, with execution costs inflated by the
// load already committed to an accelerator by previously mapped networks
// (H2H's computation/communication awareness). Because the inflation is a
// static estimate rather than a contention model, it over-subscribes the
// DSA exactly the way Sec. 5.2 describes.
func H2H(pr *schedule.Profile) *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(pr.Groups))}
	accels := len(pr.Platform.Accels)
	load := make([]float64, accels) // committed load per accelerator
	var totalLoad float64
	inflate := func(a int) float64 {
		if totalLoad <= 0 {
			return 1
		}
		return 1 + load[a]/totalLoad
	}
	// Every item's DP tables share two flat slabs, sized for the item with
	// the most groups: dp[g*accels+a] is the best cost of groups 0..g with
	// group g on accelerator a, from[g*accels+a] its predecessor.
	most := 0
	for i := range pr.Groups {
		most = max(most, pr.NumGroups(i))
	}
	dp, from := make([]float64, most*accels), make([]int, most*accels)
	for i := range pr.Groups {
		groups := pr.NumGroups(i)
		for g := 0; g < groups; g++ {
			cur, prev := g*accels, (g-1)*accels
			for j := cur; j < cur+accels; j++ {
				dp[j], from[j] = math.Inf(1), 0
			}
			for _, a := range pr.Allowed {
				exec := pr.Exec[i][g][a].LatencyMs * inflate(a)
				if g == 0 {
					dp[cur+a] = exec
					from[cur+a] = -1
					continue
				}
				for _, p := range pr.Allowed {
					c := dp[prev+p] + exec
					if p != a {
						c += pr.TransOutMs[i][g-1][p] + pr.TransInMs[i][g][a]
					}
					if c < dp[cur+a] {
						dp[cur+a] = c
						from[cur+a] = p
					}
				}
			}
		}
		// Recover the best path.
		last := (groups - 1) * accels
		best, bestCost := pr.Allowed[0], math.Inf(1)
		for _, a := range pr.Allowed {
			if dp[last+a] < bestCost {
				best, bestCost = a, dp[last+a]
			}
		}
		row := make([]int, groups)
		for g, a := groups-1, best; g >= 0; g-- {
			row[g] = a
			a = from[g*accels+a]
		}
		s.Assign[i] = row
		for g, a := range row {
			load[a] += pr.Exec[i][g][a].LatencyMs
			totalLoad += pr.Exec[i][g][a].LatencyMs
		}
	}
	return s
}

// Names lists the baselines in the paper's comparison order.
var Names = []string{"GPU-only", "GPU&DSA", "Mensa", "Herald", "H2H"}

// All returns every baseline schedule keyed by name.
func All(pr *schedule.Profile) map[string]*schedule.Schedule {
	return map[string]*schedule.Schedule{
		"GPU-only": GPUOnly(pr),
		"GPU&DSA":  NaiveConcurrent(pr),
		"Mensa":    Mensa(pr),
		"Herald":   Herald(pr),
		"H2H":      H2H(pr),
	}
}

func gpuIndex(pr *schedule.Profile) int {
	return pr.Platform.AccelIndex(pr.Platform.GPU().Name)
}
