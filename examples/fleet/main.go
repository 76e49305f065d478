// Fleet: sharding multi-tenant inference traffic across a heterogeneous
// pool of SoCs. A single AGX Orin served the two-tenant demo well
// (examples/serving), but a production deployment has racks of mixed
// hardware — here an Orin, a Xavier and a Snapdragon 865 — and the
// interesting question becomes *placement*: which device should each
// arriving request run on?
//
// The walkthrough serves the identical trace four ways: on the single
// Orin, then across the three-device pool under each placement policy.
// Round-robin is the cautionary tale — a third of the traffic lands on the
// SD865, which is an order of magnitude slower than the Orin, and fleet
// p99 explodes. Least-loaded fixes throughput by steering around the
// backlog but still parks work on slow silicon. Affinity routes each
// network to the device whose profile serves it fastest, falling back on
// load, and beats even the dedicated Orin: the pool absorbs bursts the
// single device had to queue.
//
// Along the way the fleet shares one schedule cache per platform, so a
// workload mix solved on one Orin would warm every Orin in a larger pool.
//
// Run with:
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

func main() {
	// 1. The same two-tenant Poisson trace as examples/serving: an AR
	// headset pushing VGG19 frames and an analytics service scoring
	// ResNet152, both with tight SLOs.
	tenants := []serve.TenantSpec{
		{Name: "headset", Network: "VGG19", RateRPS: 140, SLOMs: 10},
		{Name: "analytics", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
	}
	trace, err := serve.Generate(tenants, 1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d requests over 1000 ms\n\n", len(trace))

	// 2. A heterogeneous pool: one device of each evaluated platform, all
	// built from one device template. Compare serves the trace on a single
	// Orin built from the same template first, then on the fleet under
	// every placement policy — identical traffic throughout.
	cfg := fleet.Config{
		Devices: []fleet.DeviceSpec{
			{Platform: "Orin"}, {Platform: "Xavier"}, {Platform: "SD865"},
		},
		Device: serve.Config{SolverTimeScale: 50},
	}
	cmp, err := fleet.Compare(cfg, trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-20s p99 %8.2f ms   %3d SLO violations\n",
		"single "+cmp.SinglePlatform+":", cmp.Single.Total.P99Ms, cmp.Single.Total.Violations)
	for _, fs := range cmp.Fleets {
		fmt.Printf("%-20s p99 %8.2f ms   %3d SLO violations   SLO attainment %.1f%%\n",
			"fleet "+fs.Placement+":", fs.Total.P99Ms, fs.Total.Violations, fs.SLOAttainmentPct)
	}

	// 3. Placement is the whole story on heterogeneous hardware: the same
	// pool spans a catastrophic and a winning configuration.
	best := cmp.Best()
	fmt.Printf("\n%s wins: p99 %.2f ms vs the dedicated Orin's %.2f ms (%.1f%% better), %d violations avoided\n",
		best.Placement, best.Total.P99Ms, cmp.Single.Total.P99Ms,
		cmp.P99ImprovementPct(best), cmp.ViolationsAvoided(best))

	// 4. How the winner used the pool: placement share and per-device SLO
	// picture, plus the per-platform shared schedule caches.
	fmt.Println("\ndevice breakdown under", best.Placement, "placement:")
	for _, ds := range best.Devices {
		ts := ds.Summary.Total
		fmt.Printf("  %-9s %3d placed   p99 %7.2f ms   %3d violations\n",
			ds.Device, ds.Placed, ts.P99Ms, ts.Violations)
	}
	for _, cs := range best.Caches {
		fmt.Printf("  cache[%s]: %d mixes solved, %.0f%% hit rate\n",
			cs.Platform, cs.Entries, 100*cs.HitRate)
	}
}
