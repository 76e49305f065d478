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
//     sharding trade, with wall-clock req/sec per leg. -region swaps in
//     the canonical region-scale demo (48 Orins, 32 tenants) where the
//     single controller's per-request admission scan is the bottleneck.
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
	var (
		devices   = flag.String("devices", "Orin", "initial device pool as platform[:count], comma-separated")
		grow      = flag.String("grow", "Xavier,SD865", "platforms the autoscaler adds, cycled, comma-separated")
		minDev    = flag.Int("min", 0, "minimum active devices (default: initial pool size)")
		maxDev    = flag.Int("max", 3, "maximum active devices")
		tick      = flag.Float64("tick", control.DefaultTickMs, "control tick period in virtual ms")
		high      = flag.Float64("high", control.DefaultHighWatermarkMs, "grow when mean backlog/device exceeds this for -hysteresis ticks")
		low       = flag.Float64("low", control.DefaultLowWatermarkMs, "shrink when mean backlog/device is below this (and utilization low)")
		hyst      = flag.Int("hysteresis", control.DefaultHysteresisTicks, "consecutive ticks beyond a watermark before acting")
		cool      = flag.Int("cooldown", control.DefaultCooldownTicks, "ticks to wait after a scaling action")
		window    = flag.Int("window", control.DefaultSLOWindow, "per-tenant rolling completion window for migration decisions")
		pressure  = flag.Float64("pressure", control.DefaultPressureP99Factor, "migrate when rolling p99 exceeds this factor x SLO")
		noseed    = flag.Bool("noseed", false, "disable cross-platform cache seeding on grow")
		mix       = flag.String("mix", "fifo", "per-device mix-forming policy: "+strings.Join(serve.MixPolicies(), ", "))
		maxWait   = flag.Int("maxwait", 0, "rounds a request may be passed over by a non-FIFO mix policy before being forced (0 = default)")
		adaptive  = flag.Bool("adaptivemix", false, "let the controller switch devices to demand-balance when their pending demand spread exceeds -mixspread")
		mixSpread = flag.Float64("mixspread", control.DefaultMixSpreadGBps, "pending demand-spread threshold (GB/s) for -adaptivemix")
		mixBeam   = flag.Int("mixbeam", 0, "scoring budget for -adaptivemix: when > 0, spread-triggered switches escalate to contention-aware with this beam width")
		nomigrate = flag.Bool("nomigrate", false, "disable SLO-pressure migration (tenants stay on first assignment)")
		tenants   = flag.String("tenants", "cam-a:VGG19:20:10,cam-b:VGG19:20:10,scorer-a:ResNet152:20:12,scorer-b:ResNet152:20:12", "tenant specs as name:network:rate:slo, comma-separated")
		duration  = flag.Float64("duration", 2000, "trace duration in virtual ms")
		burst     = flag.String("burst", "600:500:7.5", "burst window as start:dur:xN (rate multiplier), empty to disable")
		seed      = flag.Int64("seed", 1, "load-generator seed")
		mode      = flag.String("mode", "compare", "control mode: serve, compare or shard-compare")
		region    = flag.Bool("region", false, "shard-compare: use the canonical region-scale demo (48 Orins, 32 tenants) instead of the flag-built pool and trace")
		placement = flag.String("placement", "least-loaded", "static fleet's placement policy in compare mode")
		objective = flag.String("objective", "latency", "per-mix scheduling objective: latency or fps")
		scale     = flag.Float64("scale", 50, "solver-time stretch onto the virtual timeline (see cmd/serve)")
		csvOut    = flag.String("csv", "", "write the control summary (or comparison) as CSV to this file")
		jsonOut   = flag.String("json", "", "write the full summary (or comparison) as JSON to this file")
		adaptWait = flag.Bool("adaptivewait", false, "scale each device's max-wait bound by the oldest request's SLO slack")
		list      = flag.Bool("list", false, "list available networks, platforms and placements, then exit")
	)
	var obsf cliutil.ObsFlags
	obsf.Register(flag.CommandLine)
	var shardf cliutil.ShardFlags
	shardf.Register(flag.CommandLine)
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
	if _, err := serve.NewMixFormer(*mix); err != nil {
		fatalf("%v", err)
	}
	specs, err := cliutil.ParseTenants(*tenants, "poisson")
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := buildTrace(specs, *duration, *burst, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	pool, err := cliutil.ParseDevices(*devices)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := control.Config{
		Fleet: fleet.Config{
			Devices:         pool,
			MixPolicy:       *mix,
			ScoreBeam:       *mixBeam,
			MaxWaitRounds:   *maxWait,
			SolverTimeScale: *scale,
			AdaptiveMaxWait: *adaptWait,
			SketchMetrics:   obsf.Sketch,
			Tracer:          obsf.Tracer(),
			Audit:           obsf.Audit(),
		},
		Metrics:           obsf.Metrics(),
		TickMs:            *tick,
		HighWatermarkMs:   *high,
		LowWatermarkMs:    *low,
		HysteresisTicks:   *hyst,
		CooldownTicks:     *cool,
		MinDevices:        *minDev,
		MaxDevices:        *maxDev,
		GrowPlatforms:     cliutil.SplitList(*grow),
		NoCacheSeeding:    *noseed,
		SLOWindow:         *window,
		PressureP99Factor: *pressure,
		NoMigration:       *nomigrate,
		AdaptiveMix:       *adaptive,
		MixSpreadGBps:     *mixSpread,
		MixScoreBeam:      *mixBeam,
	}
	if cfg.Fleet.Objective, err = cliutil.ParseObjective(*objective); err != nil {
		fatalf("%v", err)
	}

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
			len(tr), len(specs), *burst, *devices, *grow, *maxDev)
	}

	switch *mode {
	case "serve":
		if shardf.Shards > 1 {
			scfg, err := shardConfig(cfg, &shardf, &obsf)
			if err != nil {
				fatalf("%v", err)
			}
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
		cmp, err := control.Compare(cfg, tr, pl)
		if err != nil {
			fatalf("%v", err)
		}
		printControl(cmp.Controlled)
		printComparison(cmp)
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ControlComparisonCSV(w, cmp) }, cmp); err != nil {
			fatalf("%v", err)
		}
	case "shard-compare":
		scfg, err := shardConfig(cfg, &shardf, &obsf)
		if err != nil {
			fatalf("%v", err)
		}
		res, err := shard.Compare(scfg, tr)
		if err != nil {
			fatalf("%v", err)
		}
		printShardCompare(res)
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ShardComparisonCSV(w, res) }, res); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown mode %q", *mode)
	}
	if err := obsf.WriteArtifacts(); err != nil {
		fatalf("%v", err)
	}
}

// shardConfig lifts the global control configuration plus the shard and
// observability flags into the plane configuration. The fleet-level
// sinks in cfg are ignored by the plane; the merged streams come from
// the plane-level sinks.
func shardConfig(cfg control.Config, shardf *cliutil.ShardFlags, obsf *cliutil.ObsFlags) (shard.Config, error) {
	tenantPins, err := shardf.TenantShards()
	if err != nil {
		return shard.Config{}, err
	}
	devicePins, err := shardf.DeviceShards()
	if err != nil {
		return shard.Config{}, err
	}
	return shard.Config{
		Control:               cfg,
		Shards:                shardf.Shards,
		GossipEveryTicks:      shardf.GossipEvery,
		NoGossip:              shardf.NoGossip,
		NoHandoff:             shardf.NoHandoff,
		HandoffBacklogMs:      shardf.HandoffMs,
		HandoffCooldownRounds: shardf.HandoffCooldown,
		TenantShard:           tenantPins,
		DeviceShard:           devicePins,
		Tracer:                obsf.Tracer(),
		Metrics:               obsf.Metrics(),
		Audit:                 obsf.Audit(),
	}, nil
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

func printShardCompare(res *shard.CompareResult) {
	printShardSummary(res.Sharded)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\twall\treq/s (wall)\tp99\tviol\tSLO att.\tdevice-ms\tpeak")
	st := res.Sharded.Total
	fmt.Fprintf(tw, "sharded:K=%d\t%.1f ms\t%.0f\t%.2f\t%d\t%.2f%%\t%.0f\t%d\n",
		res.Sharded.Shards, res.ShardedWallSec*1e3, res.ShardedReqPerSecWall,
		st.P99Ms, st.Violations, res.Sharded.SLOAttainmentPct,
		res.Sharded.DeviceMs, res.Sharded.PeakDevices)
	gt := res.Global.Fleet.Total
	fmt.Fprintf(tw, "global\t%.1f ms\t%.0f\t%.2f\t%d\t%.2f%%\t%.0f\t%d\n",
		res.GlobalWallSec*1e3, res.GlobalReqPerSecWall,
		gt.P99Ms, gt.Violations, res.GlobalSLOAttainmentPct,
		res.Global.DeviceMs, res.Global.PeakDevices)
	tw.Flush()
	speedup := 0.0
	if res.GlobalReqPerSecWall > 0 {
		speedup = res.ShardedReqPerSecWall / res.GlobalReqPerSecWall
	}
	fmt.Printf("\nsharded wall speedup %.2fx (%d offered requests; warm hits %d, assists %d)\n",
		speedup, res.Offered, res.Sharded.WarmHits, res.Sharded.SolveAssists)
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

func printComparison(cmp *control.CompareResult) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tpool\tp50\tp99\tviol\tSLO att.\tdevice-ms")
	ct := cmp.Controlled.Fleet.Total
	fmt.Fprintf(tw, "controlled:sticky\t%s\t%.2f\t%.2f\t%d\t%.1f%%\t%.0f\n",
		cmp.Controlled.Fleet.Pool, ct.P50Ms, ct.P99Ms, ct.Violations,
		cmp.Controlled.Fleet.SLOAttainmentPct, cmp.Controlled.DeviceMs)
	st := cmp.Static.Total
	fmt.Fprintf(tw, "static:%s\t%s\t%.2f\t%.2f\t%d\t%.1f%%\t%.0f\n",
		cmp.StaticPlacement, cmp.Static.Pool, st.P50Ms, st.P99Ms, st.Violations,
		cmp.Static.SLOAttainmentPct, cmp.StaticDeviceMs)
	tw.Flush()
	p99, viol, dms := cmp.Wins()
	fmt.Printf("\ncontrolled wins %d of 3: p99 %v, violations %v, device-time %v\n",
		cmp.WinCount(), p99, viol, dms)
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "control: ") {
		msg = "control: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
