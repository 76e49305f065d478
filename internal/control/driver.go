// Driver: incremental execution of one controlled run. Controller.Serve
// historically ran its event loop to completion in one call; the sharded
// control plane (internal/shard) needs to interleave K controllers on one
// virtual timeline, pausing each at gossip barriers. Driver exposes the
// same loop — arrivals, control ticks and device rounds in deterministic
// order (arrivals first at a tie, then ticks, then rounds) — as an
// advance-to-horizon primitive, plus the hooks gossip needs: cache access
// for entry exchange, the autoscaling pressure signal for load reports,
// and future-arrival extraction/injection for cross-shard tenant handoff.
// Controller.Serve is reimplemented on top (Start + Advance(+Inf) +
// Finish), so a single global controller and a K=1 shard plane execute
// byte-identically.
package control

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// Driver steps one controlled run incrementally. Obtain one from
// Controller.Start or StartIndexed, call Advance with a nondecreasing
// horizon until it reports no work remains, then Finish exactly once for
// the summary.
//
// A driver reads its requests in place from the trace it was started on,
// through a list of indices in arrival order; it never copies or writes
// a request. Handoffs move indices: ExtractFuture returns them and Inject
// takes them, so the two drivers of a handoff must share one trace.
type Driver struct {
	r  *run
	tr serve.Trace
	// order lists, in arrival order, the indices into tr of the requests
	// offered so far and still to offer; nil reads tr itself in order.
	order    []int32
	next     int // position in order of the next request to offer
	nextTick float64
}

// Start builds the run state for one trace and returns a driver positioned
// at virtual time zero. Unlike Serve, an empty trace is accepted: a shard
// may own no tenants yet still participate in gossip (and receive handed-
// off tenants later via Inject). A request with a non-finite arrival time
// or SLO is rejected (serve.Trace.Validate), for Serve and the driver
// alike. A trace already in arrival order is read as is, with no index;
// any other through a stably sorted index. Either way the caller's trace
// is neither copied nor modified.
func (c *Controller) Start(tr serve.Trace) (*Driver, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(tr) > math.MaxInt32 {
		return nil, fmt.Errorf("control: %d requests exceed the driver's int32 indices", len(tr))
	}
	var order []int32
	if !slices.IsSortedFunc(tr, func(a, b serve.Request) int { return cmp.Compare(a.ArrivalMs, b.ArrivalMs) }) {
		order = make([]int32, len(tr))
		for i := range order {
			order[i] = int32(i)
		}
		SortArrivals(tr, order)
	}
	return c.start(tr, order)
}

// StartIndexed is Start over a subset of tr: the requests tr[order[0]],
// tr[order[1]], ..., which must be valid (serve.Trace.Validate) and listed
// in nondecreasing arrival order (SortArrivals). The driver reads them in
// place and keeps order as its own, so the caller must not modify either
// afterwards. The sharded plane starts every shard on the caller's trace
// this way, at 4 bytes per request instead of a copy of each request.
func (c *Controller) StartIndexed(tr serve.Trace, order []int32) (*Driver, error) {
	if order == nil {
		order = []int32{} // nil would read the whole trace
	}
	return c.start(tr, order)
}

func (c *Controller) start(tr serve.Trace, order []int32) (*Driver, error) {
	r, err := newRun(c.cfg)
	if err != nil {
		return nil, err
	}
	return &Driver{r: r, tr: tr, order: order, nextTick: c.cfg.TickMs}, nil
}

// SortArrivals stably sorts indices into tr by arrival time: the order in
// which a driver offers the requests they name.
func SortArrivals(tr serve.Trace, order []int32) {
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(tr[a].ArrivalMs, tr[b].ArrivalMs) })
}

// total is the number of requests the driver offers in all.
func (d *Driver) total() int {
	if d.order == nil {
		return len(d.tr)
	}
	return len(d.order)
}

// at is the index into tr of the driver's i-th request.
func (d *Driver) at(i int) int32 {
	if d.order == nil {
		return int32(i)
	}
	return d.order[i]
}

// Advance processes every event — arrival, control tick, device round —
// whose virtual time is at or before horizonMs, in the run's
// deterministic order, then returns whether work remains after the
// horizon. A control tick falling exactly on the horizon executes, so a
// gossip barrier pinned to a tick boundary observes the post-tick state.
// Pass math.Inf(1) to run to completion.
func (d *Driver) Advance(horizonMs float64) (bool, error) {
	r := d.r
	n := d.total()
	for d.next < n || r.fleet.Pending() > 0 {
		di, tDev := r.fleet.NextRound()
		tArr := math.Inf(1)
		if d.next < n {
			tArr = d.tr[d.at(d.next)].ArrivalMs
		}
		if tArr <= d.nextTick && tArr <= tDev {
			if tArr > horizonMs {
				return true, nil
			}
			if _, _, err := r.fleet.Offer(d.tr[d.at(d.next)]); err != nil {
				return false, err
			}
			d.next++
			continue
		}
		if d.nextTick <= tDev {
			if d.nextTick > horizonMs {
				return true, nil
			}
			if err := r.tick(d.nextTick); err != nil {
				return false, err
			}
			d.nextTick += r.cfg.TickMs
			continue
		}
		if tDev > horizonMs {
			return true, nil
		}
		if di < 0 {
			return false, fmt.Errorf("control: pending work but no steppable device")
		}
		if err := r.fleet.Step(di); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Finish closes the run and returns the control summary. Call exactly
// once, after Advance reports no remaining work.
func (d *Driver) Finish() *Summary { return d.r.summarize() }

// Fleet exposes the run's live fleet — the gossip layer reads per-platform
// caches and device backlog from it. Callers must not step the fleet
// directly; all progress goes through Advance.
func (d *Driver) Fleet() *fleet.Fleet { return d.r.fleet }

// PressureMs returns the autoscaling signal — mean backlog per active
// device — at the current point of the run.
func (d *Driver) PressureMs() (float64, error) { return d.r.pressure() }

// ActiveDevices returns the number of devices not yet removed.
func (d *Driver) ActiveDevices() int { return d.r.active() }

// Pending returns the number of offered-but-incomplete requests.
func (d *Driver) Pending() int { return d.r.fleet.Pending() }

// FutureArrivals counts, per tenant, the not-yet-offered requests with
// arrival strictly after afterMs. The handoff policy uses it to pick
// which tenant to move off a pressured shard.
func (d *Driver) FutureArrivals(afterMs float64) map[string]int {
	out := map[string]int{}
	for i, n := d.next, d.total(); i < n; i++ {
		if q := &d.tr[d.at(i)]; q.ArrivalMs > afterMs {
			out[q.Tenant]++
		}
	}
	return out
}

// ExtractFuture removes the tenant's not-yet-offered requests with arrival
// strictly after afterMs and returns their indices into the driver's
// trace, in arrival order. Requests already offered (or arriving at or
// before afterMs) stay: a handoff moves a tenant's future, not its
// in-flight work.
func (d *Driver) ExtractFuture(tenant string, afterMs float64) []int32 {
	var moved, kept []int32
	for i, n := d.next, d.total(); i < n; i++ {
		j := d.at(i)
		if q := &d.tr[j]; q.Tenant == tenant && q.ArrivalMs > afterMs {
			moved = append(moved, j)
		} else {
			kept = append(kept, j)
		}
	}
	if kept == nil {
		kept = []int32{} // a nil order would read the whole trace
	}
	d.order, d.next = kept, 0
	return moved
}

// Inject merges handed-off requests, given as indices into the trace this
// driver was started on, into the remaining arrivals. Every injected
// arrival must be at or after the driver's current horizon (the
// extraction barrier time guarantees this for handoffs); the merge is
// stable, existing arrivals first at a tie, so the combined stream stays
// deterministic.
func (d *Driver) Inject(moved []int32) {
	if len(moved) == 0 {
		return
	}
	merged := make([]int32, 0, d.total()-d.next+len(moved))
	for i, n := d.next, d.total(); i < n; i++ {
		merged = append(merged, d.at(i))
	}
	merged = append(merged, moved...)
	SortArrivals(d.tr, merged)
	d.order, d.next = merged, 0
}

// Trace returns the trace the driver reads its requests from: the one it
// was started on, never a copy.
func (d *Driver) Trace() serve.Trace { return d.tr }
