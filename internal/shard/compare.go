// Sharded-vs-global compare: the same bursty multi-tenant trace served
// once by the K-shard plane and once by a single global controller built
// from the identical configuration. Deterministic serving metrics
// (violations, attainment, percentiles) come from the virtual timeline;
// wall-clock requests/sec is the one real-time measurement — the number
// the sharded architecture exists to move, since the shards' solver and
// dispatch work genuinely runs in parallel.
package shard

import (
	"fmt"
	"time"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// CompareResult is the outcome of one sharded-vs-global comparison.
type CompareResult struct {
	// Sharded and Global serve the identical trace: Sharded on the
	// K-shard plane, Global on one controller owning the whole pool.
	Sharded *Summary
	Global  *control.Summary

	// Offered is the trace size both legs served.
	Offered int

	// GlobalSLOAttainmentPct mirrors the global leg's merged attainment
	// (the sharded leg's lives in Sharded.SLOAttainmentPct).
	GlobalSLOAttainmentPct float64

	// Wall-clock: elapsed real time per leg and the derived offered
	// requests/sec — the throughput of the control-plane machinery
	// itself, not of the simulated devices.
	ShardedWallSec       float64
	GlobalWallSec        float64
	ShardedReqPerSecWall float64
	GlobalReqPerSecWall  float64
}

// Compare serves the trace on the sharded plane and on the equivalent
// global controller and reports both, with wall-clock throughput per leg.
// The plane's observability sinks apply to the sharded leg only — the
// global leg runs unobserved, so both legs do equal per-event work aside
// from the sharding itself.
func Compare(cfg Config, tr serve.Trace) (*CompareResult, error) {
	plane, err := New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now() //detlint:allow walltime shard-compare is explicitly a wall-clock benchmark; wall seconds land only in *Wall fields
	sharded, err := plane.Serve(tr)
	if err != nil {
		return nil, fmt.Errorf("shard: sharded leg: %w", err)
	}
	shardedWall := time.Since(start).Seconds() //detlint:allow walltime wall benchmark leg, reported as ShardedWallSec only

	global, err := control.New(plane.Global())
	if err != nil {
		return nil, err
	}
	start = time.Now() //detlint:allow walltime wall benchmark leg for the global controller
	gsum, err := global.Serve(tr)
	if err != nil {
		return nil, fmt.Errorf("shard: global leg: %w", err)
	}
	globalWall := time.Since(start).Seconds() //detlint:allow walltime wall benchmark leg, reported as GlobalWallSec only

	res := &CompareResult{
		Sharded:                sharded,
		Global:                 gsum,
		Offered:                len(tr),
		GlobalSLOAttainmentPct: gsum.Fleet.SLOAttainmentPct,
		ShardedWallSec:         shardedWall,
		GlobalWallSec:          globalWall,
	}
	if shardedWall > 0 {
		res.ShardedReqPerSecWall = float64(len(tr)) / shardedWall
	}
	if globalWall > 0 {
		res.GlobalReqPerSecWall = float64(len(tr)) / globalWall
	}
	return res, nil
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
