// Load generator: deterministic multi-tenant request traces with Poisson
// or periodic arrivals. The same seed always yields the same trace, so
// serving experiments (and the naive-vs-aware comparison, which must serve
// identical traffic) are reproducible.
package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"haxconn/internal/nn"
)

// TenantSpec describes one tenant's traffic.
type TenantSpec struct {
	// Name identifies the tenant in metrics.
	Name string
	// Network is the zoo network every request of this tenant runs.
	Network string
	// RateRPS generates Poisson arrivals at this mean rate (requests per
	// second of virtual time). Exclusive with PeriodMs.
	RateRPS float64
	// PeriodMs generates periodic arrivals at this fixed interval.
	// Exclusive with RateRPS.
	PeriodMs float64
	// PhaseMs offsets the tenant's first arrival.
	PhaseMs float64
	// SLOMs is the per-request latency objective stamped on every request.
	SLOMs float64
}

// MaxTraceRequests caps the arrivals one Generate call may produce: ten
// times a 1M-request region run. A spec set whose expected arrival count
// exceeds it is rejected before any request is generated, since serving
// it would first allocate the whole trace.
const MaxTraceRequests = 10_000_000

// Generate builds a trace covering [0, durationMs) from the tenant specs.
// Arrivals are deterministic in (specs, durationMs, seed): each tenant
// draws from its own seeded stream, so adding a tenant does not perturb
// the others' arrivals. The specs' expected arrival count is bounded by
// MaxTraceRequests, and an arrival gap too small to advance the clock is
// an error, so Generate always terminates.
func Generate(specs []TenantSpec, durationMs float64, seed int64) (Trace, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no tenant specs")
	}
	if !(durationMs > 0 && durationMs < math.Inf(1)) {
		return nil, fmt.Errorf("serve: duration %g is not positive and finite", durationMs)
	}
	names := map[string]bool{}
	expected := 0.0
	for i, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("serve: tenant %d has no name", i)
		}
		if sp.Name == totalName {
			return nil, fmt.Errorf("serve: tenant name %q is reserved for the aggregate row", totalName)
		}
		if names[sp.Name] {
			return nil, fmt.Errorf("serve: duplicate tenant %q", sp.Name)
		}
		names[sp.Name] = true
		if _, err := nn.ByName(sp.Network); err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", sp.Name, err)
		}
		// An infinite rate never advances the arrival clock, and a NaN
		// SLO never counts a violation.
		for _, v := range []float64{sp.RateRPS, sp.PeriodMs, sp.PhaseMs, sp.SLOMs} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("serve: tenant %q has a non-finite rate, period, phase or SLO", sp.Name)
			}
		}
		if (sp.RateRPS > 0) == (sp.PeriodMs > 0) {
			return nil, fmt.Errorf("serve: tenant %q must set exactly one of RateRPS and PeriodMs", sp.Name)
		}
		if sp.PhaseMs < 0 || sp.SLOMs < 0 {
			return nil, fmt.Errorf("serve: tenant %q has negative phase or SLO", sp.Name)
		}
		// Periodic tenants arrive ceil(span/period) times, Poisson ones
		// rate x span on average.
		if span := durationMs - sp.PhaseMs; span > 0 {
			if sp.RateRPS > 0 {
				expected += sp.RateRPS * span / 1000
			} else {
				expected += math.Ceil(span / sp.PeriodMs)
			}
		}
		if expected > MaxTraceRequests {
			return nil, fmt.Errorf("serve: tenant %q brings the trace to about %.3g requests, over the MaxTraceRequests cap of %d", sp.Name, expected, MaxTraceRequests)
		}
	}
	var tr Trace
	for _, sp := range specs {
		// Per-tenant sub-stream keyed by tenant name, so reordering or
		// inserting tenants never perturbs another tenant's arrivals.
		h := fnv.New64a()
		h.Write([]byte(sp.Name))
		rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		t := sp.PhaseMs
		if sp.RateRPS > 0 {
			t += rng.ExpFloat64() * 1000 / sp.RateRPS
		}
		for t < durationMs {
			tr = append(tr, Request{
				Tenant:    sp.Name,
				Network:   sp.Network,
				ArrivalMs: t,
				SLOMs:     sp.SLOMs,
			})
			next := t + sp.PeriodMs
			if sp.RateRPS > 0 {
				next = t + rng.ExpFloat64()*1000/sp.RateRPS
			}
			if next == t {
				return nil, fmt.Errorf("serve: tenant %q: an arrival gap does not advance the clock at %g ms", sp.Name, t)
			}
			t = next
		}
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].ArrivalMs < tr[j].ArrivalMs })
	for i := range tr {
		tr[i].ID = i
	}
	if len(tr) == 0 {
		return nil, fmt.Errorf("serve: specs produced no arrivals in %g ms", durationMs)
	}
	return tr, nil
}
