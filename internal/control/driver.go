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
	"fmt"
	"math"
	"sort"

	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// Driver steps one controlled run incrementally. Obtain one from
// Controller.Start, call Advance with a nondecreasing horizon until it
// reports no work remains, then Finish exactly once for the summary.
type Driver struct {
	r        *run
	reqs     serve.Trace
	next     int
	nextTick float64
}

// Start builds the run state for one trace and returns a driver positioned
// at virtual time zero. Unlike Serve, an empty trace is accepted: a shard
// may own no tenants yet still participate in gossip (and receive handed-
// off tenants later via Inject). A request with a non-finite arrival time
// or SLO is rejected (serve.Trace.Validate), for Serve and the driver
// alike. A trace already in arrival order is used as is, with no copy:
// the driver never writes its requests in place — ExtractFuture and
// Inject build new slices — so the caller's trace is never modified.
func (c *Controller) Start(tr serve.Trace) (*Driver, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	r, err := newRun(c.cfg)
	if err != nil {
		return nil, err
	}
	return &Driver{r: r, reqs: tr.InArrivalOrder(), nextTick: c.cfg.TickMs}, nil
}

// Advance processes every event — arrival, control tick, device round —
// whose virtual time is at or before horizonMs, in the run's
// deterministic order, then returns whether work remains after the
// horizon. A control tick falling exactly on the horizon executes, so a
// gossip barrier pinned to a tick boundary observes the post-tick state.
// Pass math.Inf(1) to run to completion.
func (d *Driver) Advance(horizonMs float64) (bool, error) {
	r := d.r
	for d.next < len(d.reqs) || r.fleet.Pending() > 0 {
		di, tDev := r.fleet.NextRound()
		tArr := math.Inf(1)
		if d.next < len(d.reqs) {
			tArr = d.reqs[d.next].ArrivalMs
		}
		if tArr <= d.nextTick && tArr <= tDev {
			if tArr > horizonMs {
				return true, nil
			}
			if _, _, err := r.fleet.Offer(d.reqs[d.next]); err != nil {
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
	for _, q := range d.reqs[d.next:] {
		if q.ArrivalMs > afterMs {
			out[q.Tenant]++
		}
	}
	return out
}

// ExtractFuture removes and returns the tenant's not-yet-offered requests
// with arrival strictly after afterMs, preserving order. Requests already
// offered (or arriving at or before afterMs) stay: a handoff moves a
// tenant's future, not its in-flight work.
func (d *Driver) ExtractFuture(tenant string, afterMs float64) serve.Trace {
	var moved, kept serve.Trace
	for _, q := range d.reqs[d.next:] {
		if q.Tenant == tenant && q.ArrivalMs > afterMs {
			moved = append(moved, q)
		} else {
			kept = append(kept, q)
		}
	}
	d.reqs, d.next = kept, 0
	return moved
}

// Inject merges handed-off requests into the remaining arrivals. Every
// injected arrival must be at or after the driver's current horizon (the
// extraction barrier time guarantees this for handoffs); the merge is
// stable, existing arrivals first at a tie, so the combined stream stays
// deterministic.
func (d *Driver) Inject(reqs serve.Trace) {
	if len(reqs) == 0 {
		return
	}
	merged := append(serve.Trace(nil), d.reqs[d.next:]...)
	merged = append(merged, reqs...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].ArrivalMs < merged[j].ArrivalMs })
	d.reqs, d.next = merged, 0
}
