package solver

import (
	"time"

	"haxconn/internal/schedule"
)

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
	// ScheduleAt/ScheduleAtNodes deploy before any incumbent has landed.
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

// scheduleWhere returns the last incumbent satisfying the landed
// predicate, falling back to the configured naive seed when none has
// landed yet — an incumbent the solver has not yet found cannot be
// deployed, so unseeded runs report nil until the first improvement
// lands.
func (a *Anytime) scheduleWhere(landed func(Incumbent) bool) *schedule.Schedule {
	var cur *schedule.Schedule
	for _, inc := range a.History {
		if landed(inc) {
			cur = inc.Schedule
		}
	}
	if cur == nil {
		return a.Seed
	}
	return cur
}

// ScheduleAt returns the schedule the runtime would be using after the
// given solver wall-time has elapsed: the last incumbent found no later
// than elapsed.
func (a *Anytime) ScheduleAt(elapsed time.Duration) *schedule.Schedule {
	return a.scheduleWhere(func(inc Incumbent) bool { return inc.Elapsed <= elapsed })
}

// ScheduleAtNodes returns the schedule the runtime would be using after the
// given amount of search work: the last incumbent found within nodes search
// nodes. Because node counts (unlike wall time) are deterministic for a
// given problem, replays of the incumbent stream against a virtual clock
// are reproducible — internal/serve's schedule cache deploys upgrades
// through this entry point.
func (a *Anytime) ScheduleAtNodes(nodes int) *schedule.Schedule {
	return a.scheduleWhere(func(inc Incumbent) bool { return inc.Nodes <= nodes })
}
