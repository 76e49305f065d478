// Fleet-level metrics: per-device serving summaries folded into pool-wide
// tenant statistics, SLO attainment, and the device-keyed view of the
// shared schedule caches.
package fleet

import (
	"sort"

	"haxconn/internal/serve"
)

// DeviceSummary is one device's share of a fleet run.
type DeviceSummary struct {
	// Device and Platform identify the device ("Orin/1" on "Orin").
	Device   string
	Platform string
	// Placed is the number of requests the dispatcher routed here.
	Placed int
	// Summary is the device's own serving summary.
	Summary *serve.Summary
}

// CacheStats is the fleet's view of one platform group's schedule cache:
// with shared caches (the default) every device of the platform reads and
// warms the same entries, so a mix solved on one Orin serves all Orins.
type CacheStats struct {
	// Platform is the group key; Devices lists the group's members.
	Platform string
	Devices  []string
	// Entries is the number of distinct solved mixes; Hits/Misses/
	// Upgrades aggregate the whole group's lookups and deployments.
	Entries  int
	Hits     int
	Misses   int
	Upgrades int
	HitRate  float64
}

// Summary is the outcome of serving one trace across the fleet.
type Summary struct {
	// Placement and Policy name the dispatcher configuration; Pool
	// describes the device pool ("Orin+Orin+Xavier"). MixPolicy is the
	// fleet-wide default mix-forming policy (per-device overrides show in
	// each DeviceSummary's serving summary).
	Placement string
	Policy    string
	MixPolicy string
	Pool      string

	// DurationMs is the fleet-wide virtual makespan (last completion on
	// any device); Rounds sums dispatch rounds over all devices.
	DurationMs float64
	Rounds     int

	// Tenants and Total aggregate every device's completions, exactly as
	// a single-SoC summary over them would (Total.Tenant = "TOTAL"); see
	// serve.SummarizeTallies.
	Tenants []serve.TenantStats
	Total   serve.TenantStats

	// SLOAttainmentPct is the fleet-level SLO attainment: the percentage
	// of offered requests that completed within their SLO (rejected
	// requests count against attainment).
	SLOAttainmentPct float64

	Devices []DeviceSummary
	Caches  []CacheStats
}

// Summarize assembles the fleet summary from the devices' recorded state
// so far: the pool rows merge the devices' tallies in pool order, with no
// completion re-folded. Serve calls it at end of trace; a control plane
// may also call it after driving the fleet through the stepping
// primitives itself, and calling it again is harmless.
func (f *Fleet) Summarize() *Summary {
	f.auditPlacements()
	sum := &Summary{
		Placement: f.placer.Name(),
		Policy:    f.cfg.Device.Policy.String(),
		MixPolicy: serve.MixPolicyName(f.cfg.Device.MixPolicy),
		Pool:      f.Pool(),
	}
	tallies := make([]*serve.Tally, len(f.devices))
	byPlatform := map[string]*CacheStats{}
	for i, d := range f.devices {
		tallies[i] = d.Tally()
		sum.Rounds += d.Rounds()
		sum.Devices = append(sum.Devices, DeviceSummary{
			Device:   d.Name(),
			Platform: d.Platform().Name,
			Placed:   f.placed[i],
			Summary:  d.Summary(),
		})
		cs, ok := byPlatform[d.Platform().Name]
		if !ok {
			cs = &CacheStats{Platform: d.Platform().Name}
			byPlatform[d.Platform().Name] = cs
		}
		cs.Devices = append(cs.Devices, d.Name())
		hits, misses, upgrades := d.CacheCounters()
		cs.Hits += hits
		cs.Misses += misses
		cs.Upgrades += upgrades
	}
	//detlint:allow maprange per-key writes into byPlatform are independent; render order is fixed by the sorted names pass below
	for name, c := range f.caches {
		byPlatform[name].Entries = c.Len()
	}
	if f.cfg.PrivateCaches {
		for _, d := range f.devices {
			byPlatform[d.Platform().Name].Entries += d.Cache().Len()
		}
	}
	names := make([]string, 0, len(byPlatform))
	for name := range byPlatform {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := byPlatform[name]
		if t := cs.Hits + cs.Misses; t > 0 {
			cs.HitRate = float64(cs.Hits) / float64(t)
		}
		sum.Caches = append(sum.Caches, *cs)
	}

	agg := serve.SummarizeTallies(tallies, f.cfg.Device.Policy, sum.Pool, f.cfg.Device.Objective)
	sum.DurationMs = agg.DurationMs
	sum.Tenants = agg.Tenants
	sum.Total = agg.Total
	sum.SLOAttainmentPct = sum.Total.SLOAttainmentPct()
	return sum
}
