// Sharded-vs-global compare legs: the same bursty multi-tenant trace
// served once by one global controller built from the identical
// configuration and once by the K-shard plane. Every figure comes from
// the virtual timeline; the command layer times the legs on the wall
// clock, the number the sharded architecture exists to move, since the
// shards' solver and dispatch work genuinely runs in parallel.
package shard

import (
	"fmt"
	"strings"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// Legs returns the legs of a sharding comparison: one global controller
// built from the plane's global-equivalent configuration (the baseline),
// then the K-shard plane. Only the plane is observed, through
// cfg's sinks; the global leg runs unobserved, so both legs do equal
// per-event work aside from the sharding itself.
func Legs(cfg Config) ([]serve.Leg, error) {
	plane, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sharded := serve.Leg{Name: fmt.Sprintf("sharded:K=%d", cfg.shards()), Serve: func(tr serve.Trace) (serve.Row, error) {
		sum, err := plane.Serve(tr)
		if err != nil {
			return serve.Row{}, err
		}
		pools := make([]string, len(sum.PerShard))
		for i, ss := range sum.PerShard {
			pools[i] = ss.Control.Fleet.Pool
		}
		return serve.Row{Pool: strings.Join(pools, "|"),
			MixPolicy: serve.MixPolicyName(plane.Global().Fleet.Device.MixPolicy),
			Total:     sum.Total, SLOAttainmentPct: sum.SLOAttainmentPct,
			DeviceMs: sum.DeviceMs, PeakDevices: sum.PeakDevices, Summary: sum}, nil
	}}
	return []serve.Leg{control.Leg("global", plane.Global()), sharded}, nil
}

// DemoShardTrace is the canonical region-scale bursty trace: eight
// tenants (four VGG19 camera feeds, four ResNet152 scorers — two tenants
// per shard at K=4 under the default round-robin partition) at a base
// rate a one-device shard serves comfortably, a fleet-wide mid-trace
// burst several times the base rate — every shard's reactive growth
// fires in the same ticks, where the global controller grows one device
// per cooldown window — plus a hotter overlay concentrated on the "-a"
// tenants, so one shard takes more than its fair share and the handoff
// path, not just per-shard elasticity, has to answer. Deterministic in
// the seed.
func DemoShardTrace(seed int64) (serve.Trace, error) {
	base, err := serve.Generate(demoShardTenants(40), 3000, seed)
	if err != nil {
		return nil, err
	}
	hot, err := serve.Generate(suffixedTenants([]string{"a"}, 250), 300, seed+2)
	if err != nil {
		return nil, err
	}
	burst, err := serve.Generate(demoShardTenants(160), 500, seed+1)
	if err != nil {
		return nil, err
	}
	return control.MergeTraces(base, control.ShiftTrace(hot, 150), control.ShiftTrace(burst, 600)), nil
}

// demoShardTenants builds the eight demo tenants at a per-tenant rate.
func demoShardTenants(rateRPS float64) []serve.TenantSpec {
	return suffixedTenants([]string{"a", "b", "c", "d"}, rateRPS)
}

// suffixedTenants builds one VGG19 camera and one ResNet152 scorer tenant
// per suffix, all at the same per-tenant rate.
func suffixedTenants(suffixes []string, rateRPS float64) []serve.TenantSpec {
	specs := make([]serve.TenantSpec, 0, 2*len(suffixes))
	for _, s := range suffixes {
		specs = append(specs,
			serve.TenantSpec{Name: "cam-" + s, Network: "VGG19", RateRPS: rateRPS, SLOMs: 10},
			serve.TenantSpec{Name: "scorer-" + s, Network: "ResNet152", RateRPS: rateRPS, SLOMs: 12},
		)
	}
	return specs
}

// regionSuffixes are the sixteen tenant-pair suffixes of the region demo.
var regionSuffixes = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p"}

// DemoRegionControl is the region-scale configuration of the canonical
// sharded-vs-global benchmark: 48 Orins with growth headroom. At this
// pool size the single controller's per-request admission scan — every
// device's backlog, standalone cost and mix fit — is the wall-clock
// bottleneck the sharded plane divides by K, and its fleet-wide mean
// backlog signal is too coarse to catch a bursting subset of devices,
// which per-shard autoscalers see immediately.
func DemoRegionControl() control.Config {
	return control.Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin", Count: 48}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    56,
		GrowPlatforms: []string{"Orin"},
	}
}

// DemoRegionTrace is DemoShardTrace at region scale: thirty-two tenants
// (sixteen VGG19 camera feeds, sixteen ResNet152 scorers) over the same
// base / hot-overlay / fleet-wide-burst structure. Deterministic in the
// seed.
func DemoRegionTrace(seed int64) (serve.Trace, error) {
	base, err := serve.Generate(suffixedTenants(regionSuffixes, 40), 3000, seed)
	if err != nil {
		return nil, err
	}
	hot, err := serve.Generate(suffixedTenants([]string{"a"}, 250), 300, seed+2)
	if err != nil {
		return nil, err
	}
	burst, err := serve.Generate(suffixedTenants(regionSuffixes, 120), 500, seed+1)
	if err != nil {
		return nil, err
	}
	return control.MergeTraces(base, control.ShiftTrace(hot, 150), control.ShiftTrace(burst, 600)), nil
}
