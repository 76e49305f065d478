// Command fleet shards multi-tenant inference traffic across a pool of
// SoC serving devices and reports fleet-level latency percentiles, SLO
// attainment, per-device load and schedule-cache effectiveness.
//
// The pool is specified as comma-separated platform[:count] entries, so
// "Orin:2,Xavier,SD865" is two Orins, one Xavier and one Snapdragon 865.
// Tenants are specified as name:network:rate:slo exactly as in cmd/serve,
// and -mix selects the per-device mix-forming policy (fifo,
// demand-balance, slo-aware or contention-aware; see cmd/serve, -mixbeam
// sets the scoring beam). -placement chooses how arrivals are routed:
// round-robin, least-loaded, affinity, or mix-aware (steer each arrival
// toward the device whose pending queue its predicted contention
// balances best — cross-device mix forming).
//
// Modes:
//
//   - serve:   run the fleet once under -placement and print the summary.
//   - compare: serve the identical trace on a single SoC (the pool's first
//     platform) and on the fleet under every placement policy — the
//     scale-out win and the policy-vs-policy differences on one trace.
//
// Examples:
//
//	fleet                                 # Orin+Xavier+SD865, compare mode
//	fleet -devices Orin:4 -placement least-loaded -mode serve
//	fleet -devices Orin,Xavier -tenants "cam:VGG19:200:10,lidar:ResNet101:80:25" -csv out.csv
//	fleet -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"haxconn/internal/cliutil"
	"haxconn/internal/fleet"
	"haxconn/internal/nn"
	"haxconn/internal/report"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

func main() {
	var cfg fleet.Config
	cliutil.ServingFlags(flag.CommandLine, &cfg.Device, true)
	flag.BoolVar(&cfg.PrivateCaches, "privatecaches", false, "give each device its own schedule cache instead of sharing per platform")
	var (
		devices   = flag.String("devices", "Orin,Xavier,SD865", "device pool as platform[:count], comma-separated")
		placement = flag.String("placement", "least-loaded", "placement policy: "+strings.Join(fleet.Placements(), ", "))
		tenants   = flag.String("tenants", "alice:VGG19:140:10,bob:ResNet152:140:12", "tenant specs as name:network:rate:slo, comma-separated")
		arrivals  = flag.String("arrivals", "poisson", "arrival process: poisson (rate = req/s) or periodic (rate = period ms)")
		duration  = flag.Float64("duration", 1000, "trace duration in virtual ms")
		seed      = flag.Int64("seed", 1, "load-generator seed")
		mode      = flag.String("mode", "compare", "fleet mode: serve or compare")
		policy    = flag.String("policy", "aware", "per-device serving policy: aware or naive")
		csvOut    = flag.String("csv", "", "write the fleet summary (or comparison) as CSV to this file")
		jsonOut   = flag.String("json", "", "write the full summary (or comparison) as JSON to this file")
		cacheSave = flag.String("cache-save", "", "write the per-platform schedule caches as JSON to this file after serving (-mode serve)")
		cacheLoad = flag.String("cache-load", "", "seed the per-platform schedule caches from a -cache-save file before serving")
		list      = flag.Bool("list", false, "list available networks, platforms and placements, then exit")
	)
	var obsf cliutil.ObsFlags
	obsf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("networks:  ", strings.Join(nn.Names(), ", "))
		names := []string{}
		for _, p := range soc.Platforms() {
			names = append(names, p.Name)
		}
		fmt.Println("platforms: ", strings.Join(names, ", "))
		fmt.Println("placements:", strings.Join(fleet.Placements(), ", "))
		return
	}
	specs, err := cliutil.ParseTenants(*tenants, *arrivals)
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := serve.Generate(specs, *duration, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	pool, err := cliutil.ParseDevices(*devices)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Devices = pool
	obsf.Apply(&cfg.Device)
	switch *policy {
	case "aware":
		cfg.Device.Policy = serve.ContentionAware
	case "naive":
		cfg.Device.Policy = serve.NaiveGPUOnly
	default:
		fatalf("unknown policy %q", *policy)
	}

	nDev := 0
	for _, d := range pool {
		n := d.Count
		if n == 0 {
			n = 1
		}
		nDev += n
	}
	fmt.Printf("dispatching %d requests from %d tenants over %d devices (%s, %s arrivals, %.0f ms)\n\n",
		len(tr), len(specs), nDev, *devices, *arrivals, *duration)

	switch *mode {
	case "serve":
		pl, err := fleet.NewPlacer(*placement)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Placement = pl
		f, err := fleet.New(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if *cacheLoad != "" {
			n, err := cliutil.LoadFleetCaches(*cacheLoad, f)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("loaded %d cached mixes from %s\n", n, *cacheLoad)
		}
		sum, err := f.Serve(tr)
		if err != nil {
			fatalf("%v", err)
		}
		printFleet(sum)
		if *cacheSave != "" {
			if err := cliutil.SaveFleetCaches(*cacheSave, f); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("wrote %s\n", *cacheSave)
		}
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.FleetCSV(w, sum) }, sum); err != nil {
			fatalf("%v", err)
		}
	case "compare":
		if *cacheSave != "" || *cacheLoad != "" {
			fatalf("-cache-save/-cache-load need -mode serve (compare builds its own fleets)")
		}
		if obsf.Tracing() || obsf.MetricsPath != "" || obsf.AuditPath != "" {
			fatalf("-trace/-trace-jsonl/-metrics-out/-audit-out need -mode serve (compare rebuilds identically named devices per leg, which would overlap in one trace or audit)")
		}
		cmp, err := fleet.Compare(cfg, tr)
		if err != nil {
			fatalf("%v", err)
		}
		printComparison(cmp)
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.FleetComparisonCSV(w, cmp) }, cmp); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown mode %q", *mode)
	}
	if err := obsf.WriteArtifacts(); err != nil {
		fatalf("%v", err)
	}
}

func printFleet(sum *fleet.Summary) {
	fmt.Printf("== fleet %s | placement %s | policy %s | %s mix ==\n", sum.Pool, sum.Placement, sum.Policy, sum.MixPolicy)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tplatform\tplaced\trejected\tcompleted\tp50\tp95\tp99\tviol\treq/s\tcache h/m/u")
	for _, ds := range sum.Devices {
		ts := ds.Summary.Total
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d\t%.1f\t%d/%d/%d\n",
			ds.Device, ds.Platform, ds.Placed, ts.Rejected, ts.Completed,
			ts.P50Ms, ts.P95Ms, ts.P99Ms, ts.Violations, ts.ThroughputRPS,
			ds.Summary.CacheHits, ds.Summary.CacheMisses, ds.Summary.CacheUpgrades)
	}
	tot := sum.Total
	fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d\t%.1f\t\n",
		tot.Tenant, "fleet", tot.Offered, tot.Rejected, tot.Completed,
		tot.P50Ms, tot.P95Ms, tot.P99Ms, tot.Violations, tot.ThroughputRPS)
	tw.Flush()
	for _, cs := range sum.Caches {
		fmt.Printf("cache[%s] (%s): %d mixes, %d hits / %d misses (%.1f%% hit rate), %d upgrades\n",
			cs.Platform, strings.Join(cs.Devices, ","), cs.Entries, cs.Hits, cs.Misses, 100*cs.HitRate, cs.Upgrades)
	}
	fmt.Printf("rounds=%d  SLO attainment: %.1f%%\n\n", sum.Rounds, sum.SLOAttainmentPct)
}

func printComparison(cmp *fleet.Comparison) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tpool\tp50\tp99\tviol\treq/s\tSLO att.\tp99 vs single\tviol avoided")
	st := cmp.Single.Total
	fmt.Fprintf(tw, "single:%s\t%s\t%.2f\t%.2f\t%d\t%.1f\t%.1f%%\t\t\n",
		cmp.SinglePlatform, cmp.SinglePlatform, st.P50Ms, st.P99Ms, st.Violations, st.ThroughputRPS, st.SLOAttainmentPct())
	for _, fs := range cmp.Fleets {
		ft := fs.Total
		fmt.Fprintf(tw, "fleet:%s\t%s\t%.2f\t%.2f\t%d\t%.1f\t%.1f%%\t%+.1f%%\t%+d\n",
			fs.Placement, fs.Pool, ft.P50Ms, ft.P99Ms, ft.Violations, ft.ThroughputRPS,
			fs.SLOAttainmentPct, cmp.P99ImprovementPct(fs), cmp.ViolationsAvoided(fs))
	}
	tw.Flush()
	best := cmp.Best()
	fmt.Printf("\nbest placement: %s — p99 %.2f ms vs single-SoC %.2f ms (%.1f%% better), %d SLO violations avoided\n",
		best.Placement, best.Total.P99Ms, cmp.Single.Total.P99Ms,
		cmp.P99ImprovementPct(best), cmp.ViolationsAvoided(best))
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "fleet: ") {
		msg = "fleet: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
