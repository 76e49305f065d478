package solver

import "haxconn/internal/schedule"

// NodesPerMs is the search rate at which replays of an incumbent stream
// advance virtual solver time: an incumbent found after N nodes deploys
// N/NodesPerMs virtual milliseconds after its solve starts. 32 is roughly
// branch & bound's measured node rate on the two-network evaluation
// problems (~30 nodes per millisecond of solve), and because node counts
// are deterministic, so is every replay. Fig. 7 and internal/serve's
// schedule cache both replay at this rate.
const NodesPerMs = 32

// Anytime records the improvement history of a D-HaX-CoNN run: the solver
// is started alongside the executing workload with a naive initial
// schedule, and each improvement it reports is what the runtime would
// deploy at that instant (Sec. 3.5 / Fig. 7).
type Anytime struct {
	History []Incumbent
	Best    *schedule.Schedule
	Cost    float64
	Stats   Stats
	// Seed is the configured initial schedule (cfg.Seeds[0]), the fallback
	// ScheduleAtNodes deploys before any incumbent has landed.
	Seed *schedule.Schedule
}

// RunAnytime runs the branch & bound engine, capturing every incumbent.
// Seeds must contain at least the initial (naive) schedule the runtime
// starts with.
func RunAnytime(prob *schedule.Problem, pr *schedule.Profile, cfg Config) (*Anytime, error) {
	a := &Anytime{}
	if len(cfg.Seeds) > 0 {
		a.Seed = cfg.Seeds[0]
	}
	prev := cfg.OnImprove
	cfg.OnImprove = func(inc Incumbent) {
		a.History = append(a.History, inc)
		if prev != nil {
			prev(inc)
		}
	}
	best, cost, st, err := OptimizeBB(prob, pr, cfg)
	if err != nil {
		return nil, err
	}
	a.Best, a.Cost, a.Stats = best, cost, st
	return a, nil
}

// ScheduleAtNodes returns the schedule the runtime would be using after the
// given amount of search work: the last incumbent found within nodes search
// nodes, falling back to the configured naive seed when none has landed
// yet — an incumbent the solver has not yet found cannot be deployed, so
// unseeded runs report nil until the first improvement lands. Because node
// counts are deterministic for a given problem, replays of the incumbent
// stream against a virtual clock are reproducible.
func (a *Anytime) ScheduleAtNodes(nodes int) *schedule.Schedule {
	cur := a.Seed
	for _, inc := range a.History {
		if inc.Nodes <= nodes {
			cur = inc.Schedule
		}
	}
	return cur
}
