// Metrics layer: per-request completions folded into per-tenant and total
// serving statistics — latency percentiles, SLO violations, throughput —
// plus the runtime's cache effectiveness counters.
package serve

import (
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
	acc := newStreamStats(false)
	acc.total.lats = make([]float64, 0, len(completions))
	for _, c := range completions {
		acc.observe(c)
	}
	return acc.summarize(policy, platform, obj)
}

// tenantAcc folds one tenant's outcomes into counters plus its latencies:
// every sample, sorted once when the stats are read (the exact path), or
// a fixed-size sketch, so per-tenant metric memory is constant in the
// number of requests (sketch mode). Networks are labeled from the first
// completion, "mixed" on a differing one. In sketch mode mean and max
// stay exact and only the percentile columns carry the sketch's
// relative-error bound.
type tenantAcc struct {
	network                                  string
	offered, rejected, completed, violations int
	sumMs                                    float64
	lats                                     []float64   // exact path
	sketch                                   *obs.Sketch // sketch mode
}

func (a *tenantAcc) observe(c Completion) {
	a.offered++
	if a.network == "" {
		a.network = c.Network
	} else if a.network != c.Network {
		a.network = "mixed"
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

// stats reads the tenant's row. On the exact path it sorts the stored
// latencies in place, so it is called once per accumulator.
func (a *tenantAcc) stats(name string, durationMs float64) TenantStats {
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
		sort.Float64s(a.lats)
		st.MeanMs = a.sumMs / float64(len(a.lats))
		st.P50Ms = schedule.Percentile(a.lats, 0.50)
		st.P95Ms = schedule.Percentile(a.lats, 0.95)
		st.P99Ms = schedule.Percentile(a.lats, 0.99)
		st.MaxMs = a.lats[len(a.lats)-1]
	}
	st.ViolationRate = float64(a.violations) / float64(a.completed)
	if durationMs > 0 {
		st.ThroughputRPS = 1000 * float64(a.completed) / durationMs
	}
	return st
}

// streamStats accumulates a whole run's completions one at a time: one
// tenantAcc per tenant plus the TOTAL row's, fed in processing order.
type streamStats struct {
	sketch     bool
	tenants    map[string]*tenantAcc
	total      *tenantAcc
	durationMs float64
}

func newStreamStats(sketch bool) *streamStats {
	s := &streamStats{sketch: sketch, tenants: map[string]*tenantAcc{}}
	s.total = s.newAcc()
	return s
}

func (s *streamStats) newAcc() *tenantAcc {
	if s.sketch {
		return &tenantAcc{sketch: obs.NewSketch()}
	}
	return &tenantAcc{}
}

func (s *streamStats) observe(c Completion) {
	a, ok := s.tenants[c.Tenant]
	if !ok {
		a = s.newAcc()
		s.tenants[c.Tenant] = a
	}
	a.observe(c)
	s.total.observe(c)
	if c.EndMs > s.durationMs {
		s.durationMs = c.EndMs
	}
}

func (s *streamStats) summarize(policy Policy, platform string, obj schedule.Objective) *Summary {
	sum := &Summary{Policy: policy.String(), Platform: platform,
		Objective: obj.String(), DurationMs: s.durationMs}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum.Tenants = append(sum.Tenants, s.tenants[name].stats(name, s.durationMs))
	}
	sum.Total = s.total.stats(totalName, s.durationMs)
	return sum
}

// SummarizeSketch is the streaming-sketch counterpart of Summarize: same
// folding, but percentiles come from a fixed-size quantile sketch instead
// of sorted stored samples (counts, means and maxima stay exact). It is
// what a Runtime with Config.SketchMetrics produces, exported so the
// sketch-vs-exact tolerance can be tested on arbitrary completion sets.
func SummarizeSketch(completions []Completion, policy Policy, platform string, obj schedule.Objective) *Summary {
	acc := newStreamStats(true)
	for _, c := range completions {
		acc.observe(c)
	}
	return acc.summarize(policy, platform, obj)
}
