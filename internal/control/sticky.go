// Sticky placement: the tenant-to-device assignment table that replaces
// per-request placement, plus the per-tenant rolling SLO windows the
// migration manager judges. The table is a fleet.Placer, so the fleet's
// dispatch loop is unchanged — placement policy is exactly the control
// plane's hook point.
package control

import (
	"math"
	"slices"
	"sort"

	"haxconn/internal/fleet"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
)

// stickyTable maps tenants to devices. A tenant's first request is placed
// by the affinity score (earliest start plus standalone estimate) and the
// choice is remembered; every later request of the tenant lands on the
// same device until the migration manager rewrites the entry. Sticky
// routing keeps each tenant's mixes recurring on the same device group,
// which is what keeps the schedule-cache hit rate high on big pools.
type stickyTable struct {
	byTenant map[string]int
}

func newStickyTable() *stickyTable { return &stickyTable{byTenant: map[string]int{}} }

func (t *stickyTable) Name() string    { return "sticky" }
func (t *stickyTable) LoadAware() bool { return true }
func (t *stickyTable) Reset()          { t.byTenant = map[string]int{} }

// Place assigns the tenant with the affinity score (fleet.Affinity is the
// first-sight policy; the stickiness and the migration manager are what
// this table adds). The fleet calls Place only for a tenant with no
// assignment on a placeable device: a first sighting, or an assignment to
// a device drained between reassignment passes, which this repairs. While
// the assigned device takes placements, the fleet routes the tenant
// through Assigned and builds no views.
func (t *stickyTable) Place(req serve.Request, devices []fleet.DeviceView) int {
	best := fleet.Affinity().Place(req, devices)
	t.byTenant[req.Tenant] = best
	return best
}

// Assigned returns the tenant's current device, if any. It is the fleet's
// standing-assignment capability: an arrival of an assigned tenant skips
// the per-arrival pool snapshot.
func (t *stickyTable) Assigned(tenant string) (int, bool) {
	di, ok := t.byTenant[tenant]
	return di, ok
}

// assign rewrites the tenant's entry (a migration).
func (t *stickyTable) assign(tenant string, device int) { t.byTenant[tenant] = device }

// unassign drops the tenant's entry; the next request re-places it.
func (t *stickyTable) unassign(tenant string) { delete(t.byTenant, tenant) }

// tenantsOn lists the tenants assigned to a device, sorted for
// deterministic reassignment order.
func (t *stickyTable) tenantsOn(device int) []string {
	var names []string
	for name, di := range t.byTenant {
		if di == device {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// groupByDevice lists the tenants assigned to each device index below n
// — tenantsOn(i) for every i — from one scan of the table, reusing the
// lists in groups. Each list is sorted.
func (t *stickyTable) groupByDevice(n int, groups [][]string) [][]string {
	groups = slices.Grow(groups[:0], n)[:n]
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for name, di := range t.byTenant {
		if di >= 0 && di < n {
			groups[di] = append(groups[di], name)
		}
	}
	for _, g := range groups {
		slices.Sort(g)
	}
	return groups
}

// tenantWindow is a tenant's rolling completion window: the last N served
// latencies with their violation flags, in completion order (a ring), the
// same latencies kept in ascending order so p99 is an index lookup, plus
// the most recent SLO and network (migration needs both to score
// candidate devices).
type tenantWindow struct {
	cap         int
	latencies   []float64 // ring, completion order
	violations  []bool
	next        int
	full        bool
	sorted      []float64 // the window's latencies, ascending
	violated    int       // violations in the window
	lastSLOMs   float64
	lastNetwork string
	cooldown    int
}

func newTenantWindow(size int) *tenantWindow {
	return &tenantWindow{cap: size, latencies: make([]float64, size), violations: make([]bool, size),
		sorted: make([]float64, 0, size)}
}

// add slides the window one completion: the oldest entry leaves the
// sorted view once the ring is full, and the new latency is inserted in
// order, each in O(window).
func (w *tenantWindow) add(c serve.Completion) {
	if w.full {
		w.evict(w.latencies[w.next])
		if w.violations[w.next] {
			w.violated--
		}
	}
	at := sort.SearchFloat64s(w.sorted, c.LatencyMs)
	w.sorted = slices.Insert(w.sorted, at, c.LatencyMs)
	w.latencies[w.next] = c.LatencyMs
	w.violations[w.next] = c.Violated
	if c.Violated {
		w.violated++
	}
	w.next++
	if w.next == w.cap {
		w.next = 0
		w.full = true
	}
	if c.SLOMs > 0 {
		w.lastSLOMs = c.SLOMs
	}
	w.lastNetwork = c.Network
}

// evict removes one latency with v's bits from the sorted view.
func (w *tenantWindow) evict(v float64) {
	for i, s := range w.sorted {
		if math.Float64bits(s) == math.Float64bits(v) {
			w.sorted = slices.Delete(w.sorted, i, i+1)
			return
		}
	}
}

func (w *tenantWindow) len() int { return len(w.sorted) }

// reset empties the window (after a migration, so the tenant is judged on
// post-move completions only) but keeps the SLO and network hints.
func (w *tenantWindow) reset() {
	w.next = 0
	w.full = false
	w.sorted = w.sorted[:0]
	w.violated = 0
}

// p99 is the rolling window's 99th-percentile latency: an index into the
// sorted view.
func (w *tenantWindow) p99() float64 { return schedule.Percentile(w.sorted, 0.99) }

// violationRate is the fraction of windowed completions that missed SLO.
func (w *tenantWindow) violationRate() float64 {
	if len(w.sorted) == 0 {
		return 0
	}
	return float64(w.violated) / float64(len(w.sorted))
}
