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

// Generate builds a trace covering [0, durationMs) from the tenant specs.
// Arrivals are deterministic in (specs, durationMs, seed): each tenant
// draws from its own seeded stream, so adding a tenant does not perturb
// the others' arrivals.
func Generate(specs []TenantSpec, durationMs float64, seed int64) (Trace, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no tenant specs")
	}
	if !(durationMs > 0 && durationMs < math.Inf(1)) {
		return nil, fmt.Errorf("serve: duration %g is not positive and finite", durationMs)
	}
	names := map[string]bool{}
	var tr Trace
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
			if sp.RateRPS > 0 {
				t += rng.ExpFloat64() * 1000 / sp.RateRPS
			} else {
				t += sp.PeriodMs
			}
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
