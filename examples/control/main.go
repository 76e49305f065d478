// Control: closing the loop from SLO pressure to fleet shape. The fleet
// example provisioned three SoCs for the whole trace; here the pool starts
// as a single Orin and the control plane decides — on the same virtual
// timeline the requests live on — when that stops being enough.
//
// The walkthrough serves a bursty four-tenant trace twice:
//
//  1. On the controlled fleet: an autoscaler watches the admission
//     controller's backlog estimate and per-device utilization each tick,
//     grows the pool through a Xavier and a Snapdragon 865 when the burst
//     hits, then drains them once it passes. Tenants are placed through a
//     sticky assignment table — each tenant's traffic keeps hitting the
//     same device, so the per-platform schedule caches stay hot — and only
//     migrate when their rolling p99 or violation rate crosses the SLO
//     threshold. When the Xavier joins, its schedule cache is seeded from
//     the Orin's solved entries (re-costed for Xavier silicon) instead of
//     starting naive.
//
//  2. On a static fleet of the controlled fleet's maximum size, under
//     least-loaded placement: what an operator provisioning for the burst
//     would run.
//
// The static pool is faster through the burst — it never has to react —
// but it pays for three devices all trace long and its load-blind
// placement keeps parking requests on the slow SD865. The controlled
// fleet's device-time tracks the offered load and its tail latency stays
// on the fast silicon.
//
// Run with:
//
//	go run ./examples/control
package main

import (
	"fmt"
	"log"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

func main() {
	// 1. A bursty trace: four tenants at 20 req/s each for 2 s, with a
	// half-second burst in the middle at 7.5x the base rate — more than a
	// single Orin can absorb.
	trace, err := control.DemoBurstTrace(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d requests, burst at 600-1100 ms\n\n", len(trace))

	// 2. The controlled fleet: start with one Orin, allow growth through
	// Xavier and SD865 up to three devices, and let the control plane run
	// on its default watermarks.
	cfg := control.Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    3,
		GrowPlatforms: []string{"Xavier", "SD865"},
	}
	cmp, err := control.Compare(cfg, trace, nil)
	if err != nil {
		log.Fatal(err)
	}
	sum := cmp.Controlled

	// 3. What the control plane did: the pool's life cycle and the sticky
	// table's rebalances, all on the virtual timeline.
	fmt.Println("control decisions:")
	for _, e := range sum.Scale {
		fmt.Printf("  %6.0f ms  %-6s %-9s (pool now %d, backlog %.1f ms, %d cache entries seeded)\n",
			e.AtMs, e.Action, e.Device, e.Active, e.BacklogMs, e.Seeded)
	}
	for _, m := range sum.Migrations {
		fmt.Printf("  %6.0f ms  %s migrates %s -> %s (%s)\n", m.AtMs, m.Tenant, m.From, m.To, m.Reason)
	}

	// 4. The elasticity trade against the statically provisioned pool.
	ct, st := sum.Fleet.Total, cmp.Static.Total
	fmt.Printf("\n%-20s p99 %7.2f ms   %3d violations   %6.0f device-ms (peak %d devices)\n",
		"controlled:", ct.P99Ms, ct.Violations, sum.DeviceMs, sum.PeakDevices)
	fmt.Printf("%-20s p99 %7.2f ms   %3d violations   %6.0f device-ms (always %d devices)\n",
		"static "+cmp.StaticPlacement+":", st.P99Ms, st.Violations, cmp.StaticDeviceMs, len(cmp.Static.Devices))
	p99, viol, dms := cmp.Wins()
	fmt.Printf("\ncontrolled fleet wins %d of 3 metrics (p99 %v, violations %v, device-time %v)\n",
		cmp.WinCount(), p99, viol, dms)
}
