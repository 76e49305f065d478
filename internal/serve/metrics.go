// Metrics layer: per-request completions folded into per-tenant and total
// serving statistics — latency percentiles, SLO violations, throughput —
// plus the runtime's cache effectiveness counters.
package serve

import (
	"math"
	"slices"
	"sort"

	"haxconn/internal/obs"
	"haxconn/internal/schedule"
)

// totalName labels the aggregate row of a Summary; the load generator
// rejects it as a tenant name.
const totalName = "TOTAL"

// Completion is the fate of one request: either served (with timing and
// SLO accounting) or rejected by the admission controller.
type Completion struct {
	Request
	// StartMs is the dispatch time of the request's round; EndMs its
	// completion on the simulator.
	StartMs, EndMs float64
	// LatencyMs is arrival-to-completion, including queueing delay.
	LatencyMs float64
	// RoundMakespanMs is the ground-truth makespan of the dispatch round
	// that served the request (zero for rejections) — the realized side of
	// the fleet's placement-decision audit.
	RoundMakespanMs float64
	// Violated marks a served request that missed its SLO.
	Violated bool
	// Rejected marks a request the admission controller turned away.
	Rejected bool
	// RejectReason explains a rejection ("queue-full", "slo-unattainable").
	RejectReason string
}

// TenantStats aggregates one tenant's outcomes.
type TenantStats struct {
	Tenant  string
	Network string // the tenant's network, or "mixed"

	Offered   int // requests submitted
	Rejected  int
	Completed int // always Offered - Rejected: every admitted request finishes in virtual time

	MeanMs float64
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
	MaxMs  float64

	Violations    int
	ViolationRate float64 // violations / completed
	ThroughputRPS float64 // completed per second of virtual time
}

// SLOAttainmentPct is the percentage of offered requests that completed
// within their SLO; rejected requests count against attainment. No offered
// traffic attains vacuously (100%), so an idle device does not read as a
// fully failing one.
func (t TenantStats) SLOAttainmentPct() float64 {
	if t.Offered == 0 {
		return 100
	}
	return 100 * float64(t.Completed-t.Violations) / float64(t.Offered)
}

// Summary is the outcome of serving one trace.
type Summary struct {
	Policy    string
	Platform  string
	Objective string
	// MixPolicy names the mix-forming policy that shaped each round's
	// batch ("fifo", "demand-balance", "slo-aware").
	MixPolicy string

	// DurationMs is the virtual makespan of the run (last completion).
	DurationMs float64
	// Rounds is the number of dispatch rounds executed.
	Rounds int

	Tenants []TenantStats // sorted by tenant name
	Total   TenantStats   // all tenants combined (Tenant = "TOTAL")

	CacheHits     int
	CacheMisses   int
	CacheUpgrades int
	CacheHitRate  float64
}

// Summarize folds completions into a Summary (cache counters are filled by
// the runtime). It is exported so SLO-accounting can be tested on
// hand-built completion sets. One pass folds each tenant's counters and
// latencies (and the TOTAL row's) in completion order; the percentile
// columns come from the sorted latencies.
func Summarize(completions []Completion, policy Policy, platform string, obj schedule.Objective) *Summary {
	t := newTally(false)
	t.total.lats = make([]float64, 0, len(completions))
	for _, c := range completions {
		t.observe(c)
	}
	return t.summarize(policy, platform, obj)
}

// SummarizeSketch is the streaming-sketch counterpart of Summarize: same
// folding, but percentiles come from a fixed-size quantile sketch instead
// of sorted stored samples (counts, means and maxima stay exact). It is
// what a Runtime with Config.SketchMetrics produces, exported so the
// sketch-vs-exact tolerance can be tested on arbitrary completion sets.
func SummarizeSketch(completions []Completion, policy Policy, platform string, obj schedule.Objective) *Summary {
	t := newTally(true)
	for _, c := range completions {
		t.observe(c)
	}
	return t.summarize(policy, platform, obj)
}

// mixedNetwork labels a row whose completions ran more than one network.
const mixedNetwork = "mixed"

// tenantAcc folds one tenant's outcomes into counters plus its latencies:
// every served latency in completion order, with a sorted copy made when
// the stats are read (the exact path; see Tally.sortRuns), or a fixed-size
// sketch, so per-tenant metric memory is constant in the number of
// requests (sketch mode). Networks are labeled from the first completion,
// "mixed" on a differing one. In sketch mode mean and max stay exact and
// only the percentile columns carry the sketch's relative-error bound.
type tenantAcc struct {
	first, network                           string // first completion's network; the row label
	offered, rejected, completed, violations int
	sumMs                                    float64
	lats                                     []float64   // exact path, completion order
	sorted                                   []float64   // exact path, lats sorted as of the last sortRuns
	sketch                                   *obs.Sketch // sketch mode
}

func (a *tenantAcc) observe(c Completion) {
	if a.offered == 0 {
		a.first = c.Network
	}
	a.offered++
	if a.network == "" {
		a.network = c.Network
	} else if a.network != c.Network {
		a.network = mixedNetwork
	}
	if c.Rejected {
		a.rejected++
		return
	}
	a.completed++
	if a.sketch != nil {
		a.sketch.Add(c.LatencyMs)
	} else {
		a.lats = append(a.lats, c.LatencyMs)
		a.sumMs += c.LatencyMs
	}
	if c.Violated {
		a.violations++
	}
}

// row fills the tenant's statistics from its counters and either its
// sketch or, on the exact path, its latencies in ascending order.
func (a *tenantAcc) row(name string, durationMs float64, sorted []float64) TenantStats {
	st := TenantStats{Tenant: name, Network: a.network,
		Offered: a.offered, Rejected: a.rejected, Completed: a.completed,
		Violations: a.violations}
	if a.completed == 0 {
		return st
	}
	if a.sketch != nil {
		st.MeanMs = a.sketch.Mean()
		st.P50Ms = a.sketch.Quantile(0.50)
		st.P95Ms = a.sketch.Quantile(0.95)
		st.P99Ms = a.sketch.Quantile(0.99)
		st.MaxMs = a.sketch.Max()
	} else {
		st.MeanMs = a.sumMs / float64(len(sorted))
		st.P50Ms = schedule.Percentile(sorted, 0.50)
		st.P95Ms = schedule.Percentile(sorted, 0.95)
		st.P99Ms = schedule.Percentile(sorted, 0.99)
		st.MaxMs = sorted[len(sorted)-1]
	}
	st.ViolationRate = float64(a.violations) / float64(a.completed)
	if durationMs > 0 {
		st.ThroughputRPS = 1000 * float64(a.completed) / durationMs
	}
	return st
}

// Tally accumulates a run's completions one at a time, in processing
// order: one row per tenant plus the TOTAL row, each exact (latencies
// stored) or sketched. A runtime feeds its own tally every completion it
// records; Summary reads it, and a fleet or a sharded plane merges its
// devices' tallies (SummarizeTallies) instead of re-folding completions.
type Tally struct {
	sketch     bool
	tenants    map[string]*tenantAcc
	total      *tenantAcc
	durationMs float64
}

func newTally(sketch bool) *Tally {
	t := &Tally{sketch: sketch, tenants: map[string]*tenantAcc{}}
	t.total = t.newAcc()
	return t
}

func (t *Tally) newAcc() *tenantAcc {
	if t.sketch {
		return &tenantAcc{sketch: obs.NewSketch()}
	}
	return &tenantAcc{}
}

func (t *Tally) observe(c Completion) {
	a, ok := t.tenants[c.Tenant]
	if !ok {
		a = t.newAcc()
		t.tenants[c.Tenant] = a
	}
	a.observe(c)
	t.total.observe(c)
	if c.EndMs > t.durationMs {
		t.durationMs = c.EndMs
	}
}

// names returns the tally's tenant names, sorted.
func (t *Tally) names() []string {
	names := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sortRuns refreshes the sorted copy of every exact row whose latencies
// grew since the last call, carving the copies from one allocation. The
// TOTAL row's latencies are the union of the tenant rows', so it grows
// whenever one of them does, and its sorted copy is a k-way merge of
// theirs, walked in tenant-name order, rather than a second sort: the same
// multiset, so the same bits. A device's runs are thus sorted once however
// many levels summarize them, while lats keeps completion order for the
// merged means. names is the tally's sorted tenant names.
func (t *Tally) sortRuns(names []string) {
	if t.sketch || len(t.total.sorted) == len(t.total.lats) {
		return
	}
	need := len(t.total.lats)
	for _, name := range names {
		if a := t.tenants[name]; len(a.sorted) != len(a.lats) {
			need += len(a.lats)
		}
	}
	slab := make([]float64, need)
	m := tallyMerge{runs: make([][]float64, 0, len(names)), heads: make([]int, len(names)), heap: make([]int, 0, len(names))}
	for _, name := range names {
		a := t.tenants[name]
		if n := len(a.lats); len(a.sorted) != n {
			a.sorted, slab = slab[:n:n], slab[n:]
			copy(a.sorted, a.lats)
			sort.Float64s(a.sorted)
		}
		m.runs = append(m.runs, a.sorted)
	}
	t.total.sorted = m.mergeRuns(slab[:0:len(t.total.lats)])
}

func (t *Tally) summarize(policy Policy, platform string, obj schedule.Objective) *Summary {
	names := t.names()
	t.sortRuns(names)
	sum := &Summary{Policy: policy.String(), Platform: platform,
		Objective: obj.String(), DurationMs: t.durationMs}
	for _, name := range names {
		a := t.tenants[name]
		sum.Tenants = append(sum.Tenants, a.row(name, t.durationMs, a.sorted))
	}
	sum.Total = t.total.row(totalName, t.durationMs, t.total.sorted)
	return sum
}

// SummarizeTallies merges per-device tallies into one summary, equal to
// Summarize (or SummarizeSketch) over the devices' completions
// concatenated in parts order. Counts add, the duration is the latest
// completion, and a row's network label is the first network or "mixed",
// by the same rule as one fold. On the exact path the percentiles come
// from a k-way merge of each part's sorted latencies into one buffer —
// the same multiset, so the same bits — and each mean re-adds the parts'
// latencies in completion order, part after part, so it keeps the one
// fold's bits too. Sketched parts merge as sketches: percentiles, counts
// and maxima equal SummarizeSketch's, while each mean adds the parts' sums
// in parts order and may differ from one fold's in its last bits. The
// parts come from runtimes of one configuration, so they are all exact or
// all sketched.
func SummarizeTallies(parts []*Tally, policy Policy, platform string, obj schedule.Objective) *Summary {
	m := tallyMerge{parts: parts, rows: make([]*tenantAcc, 0, len(parts))}
	var names []string
	served := 0
	for _, p := range parts {
		p.sortRuns(p.names())
		m.sketch = p.sketch
		m.durationMs = math.Max(m.durationMs, p.durationMs)
		served += p.total.completed
		for name := range p.tenants {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	names = slices.Compact(names)
	if !m.sketch {
		m.buf = make([]float64, 0, served)
		m.runs = make([][]float64, 0, len(parts))
		m.heads = make([]int, len(parts))
		m.heap = make([]int, 0, len(parts))
	}
	sum := &Summary{Policy: policy.String(), Platform: platform,
		Objective: obj.String(), DurationMs: m.durationMs}
	if len(names) > 0 {
		sum.Tenants = make([]TenantStats, 0, len(names))
	}
	for _, name := range names {
		sum.Tenants = append(sum.Tenants, m.row(name, false))
	}
	sum.Total = m.row(totalName, true)
	return sum
}

// tallyMerge is SummarizeTallies' state: the parts, the merge mode and the
// scratch every row reuses — the rows being merged, the merged latency
// buffer sized for the TOTAL row, and the k-way merge's heap.
type tallyMerge struct {
	parts      []*Tally
	sketch     bool
	durationMs float64

	rows  []*tenantAcc
	buf   []float64
	runs  [][]float64
	heads []int
	heap  []int
}

// row merges one row across the parts: the named tenant's, or the TOTAL
// row's when total is set.
func (m *tallyMerge) row(name string, total bool) TenantStats {
	m.rows = m.rows[:0]
	for _, p := range m.parts {
		a := p.total
		if !total {
			a = p.tenants[name]
		}
		if a != nil && a.offered > 0 {
			m.rows = append(m.rows, a)
		}
	}
	var out tenantAcc
	for _, a := range m.rows {
		out.network = mergeNetwork(out.network, a)
		out.offered += a.offered
		out.rejected += a.rejected
		out.completed += a.completed
		out.violations += a.violations
	}
	if m.sketch {
		out.sketch = obs.NewSketch()
		for _, a := range m.rows {
			out.sketch.Merge(a.sketch)
		}
		return out.row(name, m.durationMs, nil)
	}
	m.runs = m.runs[:0]
	for _, a := range m.rows {
		for _, v := range a.lats {
			out.sumMs += v
		}
		m.runs = append(m.runs, a.sorted)
	}
	m.buf = m.mergeRuns(m.buf[:0])
	return out.row(name, m.durationMs, m.buf)
}

// mergeNetwork folds row a's network label onto label, the label of the
// rows merged before it, exactly as observing a's completions after
// theirs would: an empty label takes a's, "mixed" stays, and any other
// stays only when every one of a's completions ran that network.
func mergeNetwork(label string, a *tenantAcc) string {
	switch {
	case label == "":
		return a.network
	case label == mixedNetwork || (a.first == label && a.network == label):
		return label
	default:
		return mixedNetwork
	}
}

// mergeRuns appends the union of m.runs to dst in ascending order: a
// k-way merge over a min-heap of run heads, ties to the earlier run. Runs
// are ordered as sort.Float64s orders them, NaNs first, and so is the
// union.
func (m *tallyMerge) mergeRuns(dst []float64) []float64 {
	runs, heads, h := m.runs, m.heads[:len(m.runs)], m.heap[:0]
	for r, run := range runs {
		heads[r] = 0
		if len(run) > 0 {
			h = append(h, r)
		}
	}
	less := func(a, b int) bool {
		va, vb := runs[a][heads[a]], runs[b][heads[b]]
		switch {
		case va < vb:
			return true
		case va > vb:
			return false
		}
		// Equal, or a NaN on either side.
		if na, nb := math.IsNaN(va), math.IsNaN(vb); na != nb {
			return na
		}
		return a < b
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 1 {
		r := h[0]
		dst = append(dst, runs[r][heads[r]])
		heads[r]++
		if heads[r] == len(runs[r]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	if len(h) == 1 {
		dst = append(dst, runs[h[0]][heads[h[0]]:]...)
	}
	return dst
}
