// Device is the steppable per-SoC serving surface: everything a fleet
// dispatcher needs to drive one device's virtual timeline and make
// placement decisions across a pool. *Runtime is the canonical
// implementation; the interface exists so the fleet layer depends only on
// the serving contract, not the runtime's internals.
package serve

import (
	"haxconn/internal/obs"
	"haxconn/internal/soc"
)

// Device is one serving endpoint in a fleet: it accepts arrivals (running
// its own admission control), dispatches rounds in virtual time, and
// exposes the load signals placement policies steer by. It keeps no
// completion log: its outcomes reach the fleet once each, through the
// runtime's completion stream (Runtime.Subscribe), and its summary
// statistics through Tally.
type Device interface {
	// Name labels the device ("Orin/0").
	Name() string
	// Platform is the SoC model the device serves on.
	Platform() *soc.Platform

	// Offer hands the device one arriving request (in nondecreasing
	// arrival order across calls). The device runs admission control and
	// records a rejection as a completion; the boolean reports rejection.
	Offer(req Request) (rejected bool, err error)
	// NextStartMs is the earliest virtual time the device's next dispatch
	// round can begin; +Inf when idle with nothing pending.
	NextStartMs() float64
	// Step executes exactly one dispatch round, advancing the device
	// clock to the round's end. No-op when nothing is pending.
	Step() error

	// ClockMs is the end of the last dispatched round — when the device
	// is next free.
	ClockMs() float64
	// QueueDepth is the number of admitted, undispatched requests.
	QueueDepth() int
	// BusyMs is the total virtual time spent executing dispatch rounds —
	// divided by elapsed virtual time it is the device's utilization, the
	// signal the control plane's autoscaler samples.
	BusyMs() float64
	// BacklogMs estimates the queueing delay a new arrival would see.
	BacklogMs() (float64, error)
	// StandaloneMs estimates a network's contention-free service time on
	// this device — the affinity placement signal.
	StandaloneMs(network string) (float64, error)

	// MixPolicy names the active mix-forming policy shaping this device's
	// dispatch rounds.
	MixPolicy() string
	// SetMix swaps the mix-forming policy from the next round on (nil
	// restores the FIFO default) — the control plane's per-device hook.
	SetMix(m MixFormer)
	// PendingDemandSpread is the heaviest-minus-lightest estimated memory
	// demand across the pending queue's networks — the offered-mix
	// pressure signal a controller chooses mix policies by.
	PendingDemandSpread() (float64, error)
	// MixFitMs predicts how well a network would co-run with the device's
	// pending work: the best model-predicted pair makespan against any
	// pending network (standalone estimate when idle) — the mix-aware
	// placement signal.
	MixFitMs(network string) (float64, error)

	// Tally is the device's completion tally since its last Reset: every
	// outcome recorded, folded once as it was recorded. A fleet merges its
	// devices' tallies into the fleet summary; the device keeps no
	// completion log for it.
	Tally() *Tally
	// Rounds is the number of dispatch rounds executed.
	Rounds() int
	// CacheCounters reports the device's own cache hits, misses and
	// incumbent upgrades.
	CacheCounters() (hits, misses, upgrades int)
	// Summary folds the outcomes recorded so far into a serving summary.
	Summary() *Summary
	// FillMetrics snapshots the device's counters into the registry
	// (no-op on nil) — the fleet aggregates every device's into one.
	FillMetrics(reg *obs.Registry)
	// Reset rewinds the device to a fresh virtual timeline, keeping the
	// schedule cache warm.
	Reset()
}

var _ Device = (*Runtime)(nil)
