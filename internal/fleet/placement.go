// Placement policies: how the fleet dispatcher chooses a device for each
// arriving request. Policies are deterministic — scores tie toward the
// lowest device Index (the device's stable pool ID), never toward whatever
// order the views happen to arrive in — so fleet runs are exactly
// reproducible even when the control plane filters draining devices out of
// the candidate set.
package fleet

import (
	"fmt"
	"math"
	"strings"

	"haxconn/internal/serve"
)

// DeviceView is the per-device load snapshot a placement decision steers
// by, taken at the request's arrival instant. With a static pool the views
// arrive in Index order; a dynamic pool may filter draining or removed
// devices out, so Place must select by Index, not slice position.
type DeviceView struct {
	// Index is the device's stable position in the pool (its ID). Place
	// returns one of the views' Index values.
	Index int
	// Name and Platform identify the device ("Orin/1" on "Orin").
	Name     string
	Platform string
	// QueueDepth is the number of admitted, undispatched requests.
	QueueDepth int
	// FreeAtMs is when the device's current round ends (its clock); a
	// device whose clock is behind the arrival is free immediately.
	FreeAtMs float64
	// BacklogMs estimates the queueing delay of the pending work.
	BacklogMs float64
	// StandaloneMs is the arriving network's contention-free service
	// estimate on this device (0 when the network is unknown).
	StandaloneMs float64
	// MixFitMs is the arriving network's predicted co-run cost against the
	// device's pending queue (serve.Runtime.MixFitMs): the best
	// model-predicted pair makespan, or the standalone estimate on an idle
	// device. Populated only for mix-aware placers — it costs contention-
	// model evaluations per arrival; 0 when the network is unknown.
	MixFitMs float64
}

// StartMs is when a request placed now could start on the device.
func (v DeviceView) StartMs(arrivalMs float64) float64 {
	return math.Max(v.FreeAtMs, arrivalMs) + v.BacklogMs
}

// Placer chooses a device for each arriving request. The fleet builds
// views only for arrivals a placer must still decide: a placer that holds
// a standing assignment for the arriving tenant (see assignedCapable) is
// not consulted while the assigned device takes placements.
type Placer interface {
	// Name identifies the policy ("round-robin", "least-loaded", "affinity").
	Name() string
	// Place returns the Index of the chosen view (the device's pool ID).
	Place(req serve.Request, devices []DeviceView) int
	// Reset clears any routing state before a fresh run.
	Reset()
	// LoadAware reports whether Place reads the views' load fields
	// (QueueDepth, FreeAtMs, BacklogMs, StandaloneMs). A load-blind
	// policy lets the fleet skip the per-arrival backlog estimation.
	LoadAware() bool
}

// minByScore returns the Index of the view with the lowest score, breaking
// score ties toward the lowest Index regardless of view order — the pinned
// tie-break every built-in policy shares.
func minByScore(devices []DeviceView, score func(DeviceView) float64) int {
	best, bestScore := -1, math.Inf(1)
	for _, v := range devices {
		s := score(v)
		if best < 0 || s < bestScore || (s == bestScore && v.Index < best) {
			best, bestScore = v.Index, s
		}
	}
	return best
}

// roundRobin cycles through the pool regardless of load: the blind
// baseline every load-aware policy must beat.
type roundRobin struct{ next int }

// RoundRobin returns the round-robin placement policy.
func RoundRobin() Placer { return &roundRobin{} }

func (p *roundRobin) Name() string    { return "round-robin" }
func (p *roundRobin) Reset()          { p.next = 0 }
func (p *roundRobin) LoadAware() bool { return false }
func (p *roundRobin) Place(_ serve.Request, devices []DeviceView) int {
	i := p.next % len(devices)
	p.next++
	return devices[i].Index
}

// leastLoaded routes to the device where the request could start earliest:
// max(device free time, arrival) plus the queued backlog. Queue-depth and
// virtual-time aware, but blind to how fast the device runs this network.
type leastLoaded struct{}

// LeastLoaded returns the least-loaded placement policy.
func LeastLoaded() Placer { return leastLoaded{} }

func (leastLoaded) Name() string    { return "least-loaded" }
func (leastLoaded) Reset()          {}
func (leastLoaded) LoadAware() bool { return true }
func (leastLoaded) Place(req serve.Request, devices []DeviceView) int {
	return minByScore(devices, func(v DeviceView) float64 { return v.StartMs(req.ArrivalMs) })
}

// affinity routes each network to the device whose profile serves it
// fastest, falling back on load: the score is the estimated completion
// time (earliest start plus the network's standalone latency on the
// device), so a fast device keeps winning until its queue erodes the
// hardware advantage.
type affinity struct{}

// Affinity returns the affinity placement policy.
func Affinity() Placer { return affinity{} }

func (affinity) Name() string    { return "affinity" }
func (affinity) Reset()          {}
func (affinity) LoadAware() bool { return true }
func (affinity) Place(req serve.Request, devices []DeviceView) int {
	return minByScore(devices, func(v DeviceView) float64 {
		return v.StartMs(req.ArrivalMs) + v.StandaloneMs
	})
}

// mixAwareCapable is the capability a placer declares to receive
// DeviceView.MixFitMs — the per-arrival contention-model prediction is
// too expensive to compute for policies that ignore it.
type mixAwareCapable interface {
	// MixAware reports whether Place reads DeviceView.MixFitMs.
	MixAware() bool
}

// assignedCapable is the capability a placer declares when it holds a
// standing tenant-to-device assignment (the control plane's sticky table).
// While a tenant's assigned device takes placements, Fleet.Offer routes
// the tenant's arrivals straight to it and builds no views: the backlog
// and standalone estimates cost an O(queue) scan per device per arrival,
// and a standing assignment would ignore them. Views are built, and Place
// decides, only when no standing assignment applies: Place is called only
// for a tenant with no assignment on a placeable device — a first
// sighting, or an assignment to a draining or removed device, which Place
// repairs.
type assignedCapable interface {
	// Assigned returns the tenant's assigned device, if it has one.
	Assigned(tenant string) (int, bool)
}

// mixAware extends mix-awareness above the device boundary: where the
// per-device contention-aware mix policy picks the best batch from what
// already landed on the device, this placer steers each arrival toward
// the placeable device whose pending queue the request's predicted
// contention balances best — earliest start plus the model-predicted
// co-run cost against that device's pending networks. The ROADMAP's
// "Cross-device mix forming" follow-on: the fleet shapes the offered
// mixes before any device forms a batch.
type mixAware struct{}

// MixAware returns the cross-device mix-forming placement policy.
func MixAware() Placer { return mixAware{} }

func (mixAware) Name() string    { return "mix-aware" }
func (mixAware) Reset()          {}
func (mixAware) LoadAware() bool { return true }
func (mixAware) MixAware() bool  { return true }
func (mixAware) Place(req serve.Request, devices []DeviceView) int {
	return minByScore(devices, func(v DeviceView) float64 {
		fit := v.MixFitMs
		if fit <= 0 {
			// Unknown network (or a scoring failure): fall back to the
			// affinity signal so placement still spreads sensibly.
			fit = v.StandaloneMs
		}
		return v.StartMs(req.ArrivalMs) + fit
	})
}

// Placements lists the built-in policy names.
func Placements() []string {
	return []string{"round-robin", "least-loaded", "affinity", "mix-aware"}
}

// NewPlacer returns the named built-in policy.
func NewPlacer(name string) (Placer, error) {
	switch name {
	case "round-robin":
		return RoundRobin(), nil
	case "least-loaded":
		return LeastLoaded(), nil
	case "affinity":
		return Affinity(), nil
	case "mix-aware":
		return MixAware(), nil
	}
	return nil, fmt.Errorf("fleet: unknown placement %q (want %s)", name, strings.Join(Placements(), ", "))
}
