// Command control runs the elastic fleet control plane over generated
// bursty multi-tenant traffic: an autoscaler grows and shrinks the device
// pool against backlog/utilization watermarks, a sticky tenant table with
// SLO-pressure migration replaces per-request placement, and joining
// platforms get their schedule caches seeded from already-solved
// platforms.
//
// The initial pool is specified as comma-separated platform[:count]
// entries (cmd/fleet's format); -grow names the platforms the autoscaler
// adds, cycled in order, up to -max devices. Tenants are specified as
// name:network:rate:slo; -burst start:dur:xN overlays a burst window in
// which every tenant's rate is multiplied by N. -mix sets the fleet's
// mix-forming policy, and -adaptivemix lets the controller switch a
// device to demand-balance while its pending demand spread exceeds
// -mixspread — or to contention-aware when -mixbeam grants a scoring
// budget (every switch, and the restore when the spread subsides or the
// device drains, appears in the decision log as a "mix" event).
//
// Modes:
//
//   - serve:   run the controlled fleet once and print the summary plus
//     the scaling/migration event log. With -shards K > 1 the fleet is
//     partitioned into K concurrently-stepped shard control planes with
//     deterministic gossip (see internal/shard) and the merged plane
//     summary is printed instead.
//   - compare: serve identical traffic on the controlled fleet and on a
//     static fleet of the controlled fleet's maximum size — the
//     elasticity trade on one trace.
//   - shard-compare: serve identical traffic on the K-shard plane and on
//     one global controller built from the same configuration — the
//     sharding trade in virtual time (perfbench's region-k4 workload
//     measures its wall-clock cost). -region swaps in the canonical
//     region-scale demo (48 Orins, 32 tenants) where the single
//     controller's per-request admission scan is the bottleneck.
//
// Examples:
//
//	control                               # canonical burst demo, compare mode
//	control -mode serve -devices Orin -grow Xavier -max 4
//	control -mode serve -shards 4 -devices Orin:8 -max 12 -grow Orin
//	control -mode shard-compare -region -shards 4
//	control -burst 500:800:4 -high 15 -low 1 -tick 20
//	control -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"haxconn/internal/cliutil"
	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/nn"
	"haxconn/internal/report"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
	"haxconn/internal/soc"
)

func main() {
	var cfg control.Config
	cliutil.ServingFlags(flag.CommandLine, &cfg.Fleet.Device, false)
	flag.IntVar(&cfg.MinDevices, "min", 0, "minimum active devices (default: initial pool size)")
	flag.IntVar(&cfg.MaxDevices, "max", 3, "maximum active devices")
	flag.Float64Var(&cfg.TickMs, "tick", control.DefaultTickMs, "control tick period in virtual ms")
	flag.Float64Var(&cfg.HighWatermarkMs, "high", control.DefaultHighWatermarkMs, "grow when mean backlog/device exceeds this for -hysteresis ticks")
	flag.Float64Var(&cfg.LowWatermarkMs, "low", control.DefaultLowWatermarkMs, "shrink when mean backlog/device is below this (and utilization low)")
	flag.IntVar(&cfg.HysteresisTicks, "hysteresis", control.DefaultHysteresisTicks, "consecutive ticks beyond a watermark before acting")
	flag.IntVar(&cfg.CooldownTicks, "cooldown", control.DefaultCooldownTicks, "ticks to wait after a scaling action")
	flag.IntVar(&cfg.SLOWindow, "window", control.DefaultSLOWindow, "per-tenant rolling completion window for migration decisions")
	flag.Float64Var(&cfg.PressureP99Factor, "pressure", control.DefaultPressureP99Factor, "migrate when rolling p99 exceeds this factor x SLO")
	flag.BoolVar(&cfg.NoCacheSeeding, "noseed", false, "disable cross-platform cache seeding on grow")
	flag.BoolVar(&cfg.AdaptiveMix, "adaptivemix", false, "let the controller switch devices to demand-balance (contention-aware when -mixbeam > 0) when their pending demand spread exceeds -mixspread")
	flag.Float64Var(&cfg.MixSpreadGBps, "mixspread", control.DefaultMixSpreadGBps, "pending demand-spread threshold (GB/s) for -adaptivemix")
	flag.BoolVar(&cfg.NoMigration, "nomigrate", false, "disable SLO-pressure migration (tenants stay on first assignment)")
	var scfg shard.Config
	cliutil.ShardFlags(flag.CommandLine, &scfg)
	var (
		devices   = flag.String("devices", "Orin", "initial device pool as platform[:count], comma-separated")
		grow      = flag.String("grow", "Xavier,SD865", "platforms the autoscaler adds, cycled, comma-separated")
		tenants   = flag.String("tenants", "cam-a:VGG19:20:10,cam-b:VGG19:20:10,scorer-a:ResNet152:20:12,scorer-b:ResNet152:20:12", "tenant specs as name:network:rate:slo, comma-separated")
		duration  = flag.Float64("duration", 2000, "trace duration in virtual ms")
		burst     = flag.String("burst", "600:500:7.5", "burst window as start:dur:xN (rate multiplier), empty to disable")
		seed      = flag.Int64("seed", 1, "load-generator seed")
		mode      = flag.String("mode", "compare", "control mode: serve, compare or shard-compare")
		region    = flag.Bool("region", false, "shard-compare: use the canonical region-scale demo (48 Orins, 32 tenants) instead of the flag-built pool and trace")
		placement = flag.String("placement", "least-loaded", "static fleet's placement policy in compare mode")
		csvOut    = flag.String("csv", "", "write the control summary (or comparison) as CSV to this file")
		jsonOut   = flag.String("json", "", "write the full summary (or comparison) as JSON to this file")
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
	specs, err := cliutil.ParseTenants(*tenants, "poisson")
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := buildTrace(specs, *duration, *burst, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	if cfg.Fleet.Devices, err = cliutil.ParseDevices(*devices); err != nil {
		fatalf("%v", err)
	}
	cfg.GrowPlatforms = cliutil.SplitList(*grow)
	obsf.Apply(&cfg.Fleet.Device)

	if *region {
		if *mode != "shard-compare" {
			fatalf("-region requires -mode shard-compare")
		}
		cfg = shard.DemoRegionControl()
		if tr, err = shard.DemoRegionTrace(*seed); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("dispatching %d requests from the region demo (48 Orins, 32 tenants, fleet-wide burst)\n\n", len(tr))
	} else {
		fmt.Printf("dispatching %d requests from %d tenants (burst %q) | pool %s, grow %s, max %d\n\n",
			len(tr), len(specs), *burst, *devices, *grow, cfg.MaxDevices)
	}
	// The plane ignores the template's sinks and merges its shards' own
	// into these.
	scfg.Control = cfg
	scfg.Tracer, scfg.Metrics, scfg.Audit = obsf.Tracer(), obsf.Metrics(), obsf.Audit()

	switch *mode {
	case "serve":
		if scfg.Shards > 1 {
			plane, err := shard.New(scfg)
			if err != nil {
				fatalf("%v", err)
			}
			sum, err := plane.Serve(tr)
			if err != nil {
				fatalf("%v", err)
			}
			printShardSummary(sum)
			if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
				func(w io.Writer) error { return report.ShardSummaryCSV(w, sum) }, sum); err != nil {
				fatalf("%v", err)
			}
			break
		}
		ctrl, err := control.New(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		sum, err := ctrl.Serve(tr)
		if err != nil {
			fatalf("%v", err)
		}
		printControl(sum)
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ControlCSV(w, sum) }, sum); err != nil {
			fatalf("%v", err)
		}
	case "compare":
		pl, err := fleet.NewPlacer(*placement)
		if err != nil {
			fatalf("%v", err)
		}
		legs, err := control.Legs(cfg, pl)
		if err != nil {
			fatalf("%v", err)
		}
		rows, err := serve.Compare(tr, legs...)
		if err != nil {
			fatalf("%v", err)
		}
		printControl(rows[1].Summary.(*control.Summary))
		cliutil.PrintComparison(os.Stdout, rows)
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ComparisonCSV(w, rows) }, rows); err != nil {
			fatalf("%v", err)
		}
	case "shard-compare":
		legs, err := shard.Legs(scfg)
		if err != nil {
			fatalf("%v", err)
		}
		rows, err := serve.Compare(tr, legs...)
		if err != nil {
			fatalf("%v", err)
		}
		printShardSummary(rows[1].Summary.(*shard.Summary))
		cliutil.PrintComparison(os.Stdout, rows)
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ComparisonCSV(w, rows) }, rows); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown mode %q", *mode)
	}
	if err := obsf.WriteArtifacts(); err != nil {
		fatalf("%v", err)
	}
}

func printShardSummary(sum *shard.Summary) {
	fmt.Printf("== sharded plane | K=%d | gossip every %.0f ms | %d rounds | peak %d devices ==\n",
		sum.Shards, sum.GossipEveryMs, sum.Rounds, sum.PeakDevices)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\ttenants\tcompleted\tp99\tviol\tSLO att.\tgossip tx/rx\twarm\tassists\tdeferred")
	for _, ss := range sum.PerShard {
		st := ss.Control.Fleet.Total
		fmt.Fprintf(tw, "s%d\t%d\t%d\t%.2f\t%d\t%.1f%%\t%d/%d\t%d\t%d\t%d\n",
			ss.Shard, len(ss.Tenants), st.Completed, st.P99Ms, st.Violations,
			ss.Control.Fleet.SLOAttainmentPct, ss.GossipTxEntries, ss.GossipRxEntries,
			ss.WarmHits, ss.SolveAssists, ss.Deferred)
	}
	fmt.Fprintf(tw, "plane\t%d\t%d\t%.2f\t%d\t%.1f%%\t%d/%d\t%d\t%d\t%d\n",
		len(sum.Tenants), sum.Total.Completed, sum.Total.P99Ms, sum.Total.Violations,
		sum.SLOAttainmentPct, sum.GossipTxEntries, sum.GossipRxEntries,
		sum.WarmHits, sum.SolveAssists, sum.Deferred)
	tw.Flush()
	fmt.Printf("device-time %.0f ms | makespan %.0f ms\n", sum.DeviceMs, sum.DurationMs)
	for _, ho := range sum.Handoffs {
		fmt.Printf("  %8.1f ms  handoff %-12s s%d -> s%d (%s, backlog %.1f ms, %d arrivals moved)\n",
			ho.AtMs, ho.Tenant, ho.From, ho.To, ho.Cause, ho.BacklogMs, ho.Moved)
	}
	fmt.Println()
}

// buildTrace generates the base trace and overlays the burst window.
func buildTrace(specs []serve.TenantSpec, durationMs float64, burst string, seed int64) (serve.Trace, error) {
	base, err := serve.Generate(specs, durationMs, seed)
	if err != nil {
		return nil, err
	}
	if burst == "" {
		return base, nil
	}
	fields := strings.Split(burst, ":")
	if len(fields) != 3 {
		return nil, fmt.Errorf("burst %q: want start:dur:xN", burst)
	}
	start, err1 := strconv.ParseFloat(fields[0], 64)
	dur, err2 := strconv.ParseFloat(fields[1], 64)
	factorStr := strings.TrimPrefix(fields[2], "x")
	factor, err3 := strconv.ParseFloat(factorStr, 64)
	if err1 != nil || err2 != nil || err3 != nil || start < 0 || dur <= 0 || factor <= 1 {
		return nil, fmt.Errorf("burst %q: want start:dur:xN with N > 1", burst)
	}
	boosted := make([]serve.TenantSpec, len(specs))
	for i, sp := range specs {
		sp.RateRPS *= factor - 1 // the burst overlays on top of the base rate
		boosted[i] = sp
	}
	extra, err := serve.Generate(boosted, dur, seed+1)
	if err != nil {
		return nil, err
	}
	return control.MergeTraces(base, control.ShiftTrace(extra, start)), nil
}

func printControl(sum *control.Summary) {
	fmt.Printf("== controlled fleet | pool %s | peak %d devices, final %d ==\n",
		sum.Fleet.Pool, sum.PeakDevices, sum.FinalDevices)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tplatform\tplaced\tcompleted\tp99\tviol\tcache h/m/u")
	for _, ds := range sum.Fleet.Devices {
		ts := ds.Summary.Total
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\t%d\t%d/%d/%d\n",
			ds.Device, ds.Platform, ds.Placed, ts.Completed, ts.P99Ms, ts.Violations,
			ds.Summary.CacheHits, ds.Summary.CacheMisses, ds.Summary.CacheUpgrades)
	}
	tot := sum.Fleet.Total
	fmt.Fprintf(tw, "%s\tfleet\t%d\t%d\t%.2f\t%d\t\n",
		tot.Tenant, tot.Offered, tot.Completed, tot.P99Ms, tot.Violations)
	tw.Flush()
	fmt.Printf("device-time %.0f ms | SLO attainment %.1f%% | %d cache entries seeded cross-platform\n",
		sum.DeviceMs, sum.Fleet.SLOAttainmentPct, sum.SeededEntries)
	for _, e := range sum.Scale {
		if e.Action == "mix" {
			fmt.Printf("  %8.1f ms  mix    %-9s -> %s (demand spread %.1f GB/s)\n",
				e.AtMs, e.Device, e.Mix, e.BacklogMs)
			continue
		}
		fmt.Printf("  %8.1f ms  %-6s %-9s active=%d backlog=%.1f ms seeded=%d\n",
			e.AtMs, e.Action, e.Device, e.Active, e.BacklogMs, e.Seeded)
	}
	for _, m := range sum.Migrations {
		fmt.Printf("  %8.1f ms  migrate %-9s %s -> %s (%s, p99 %.1f ms, viol rate %.2f)\n",
			m.AtMs, m.Tenant, m.From, m.To, m.Reason, m.RollingP99Ms, m.ViolationRate)
	}
	fmt.Println()
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "control: ") {
		msg = "control: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
