// Command serve runs the online contention-aware inference-serving runtime
// against generated multi-tenant traffic and reports per-tenant latency
// percentiles, SLO violations, throughput and schedule-cache statistics.
//
// Tenants are specified as name:network:rate:slo — rate is requests per
// second for Poisson arrivals (the default) or the period in milliseconds
// with -arrivals periodic; slo is the per-request latency objective in ms.
//
// -mix selects how each dispatch round's batch is formed: fifo (oldest
// requests first, the default), demand-balance (pair memory-light with
// memory-heavy networks using profiler demand estimates), slo-aware
// (deadline-urgency order) or contention-aware (score a bounded beam of
// candidate batches with the analytic contention model — -mixbeam sets
// the beam width — and dispatch the best-predicted one). Compare mode
// additionally serves the trace under fifo, demand-balance and
// contention-aware mix forming and reports the batching win next to the
// naive-vs-aware scheduling win; -mixcsv exports that table.
//
// Solved schedule caches persist across runs: -cache-save writes the
// cache's entries (mix + best-known assignment) as JSON after serving, and
// -cache-load seeds a fresh runtime from such a file so known mixes skip
// re-solving entirely — a restart serves its first rounds on yesterday's
// schedules.
//
// Examples:
//
//	serve                                # two-tenant demo, naive-vs-aware comparison
//	serve -mode aware -duration 5000 -csv out.csv
//	serve -platform Xavier -tenants "cam:VGG19:30:40,lidar:ResNet101:25:50" -arrivals periodic
//	serve -mode aware -mix demand-balance
//	serve -mode aware -cache-save warm.json && serve -mode aware -cache-load warm.json
//	serve -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"haxconn/internal/cliutil"
	"haxconn/internal/nn"
	"haxconn/internal/report"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

func main() {
	var (
		platform  = flag.String("platform", "Orin", "target SoC: Orin, Xavier or SD865")
		tenants   = flag.String("tenants", "alice:VGG19:140:10,bob:ResNet152:140:12", "tenant specs as name:network:rate:slo, comma-separated")
		arrivals  = flag.String("arrivals", "poisson", "arrival process: poisson (rate = req/s) or periodic (rate = period ms)")
		duration  = flag.Float64("duration", 1000, "trace duration in virtual ms")
		seed      = flag.Int64("seed", 1, "load-generator seed")
		mode      = flag.String("mode", "compare", "serving mode: aware, naive or compare")
		objective = flag.String("objective", "latency", "per-mix scheduling objective: latency or fps")
		mix       = flag.String("mix", "fifo", "mix-forming policy: "+strings.Join(serve.MixPolicies(), ", "))
		mixBeam   = flag.Int("mixbeam", 0, "candidate batches the contention-aware mix policy scores per round (0 = default)")
		maxBatch  = flag.Int("maxbatch", 0, "max concurrent requests per dispatch round (default: #accelerators)")
		maxQueue  = flag.Int("maxqueue", 0, "per-tenant pending-queue cap; 0 = unlimited")
		admitSLO  = flag.Float64("admitslo", 0, "reject requests whose estimated latency exceeds this factor x SLO; 0 = admit all")
		maxWait   = flag.Int("maxwait", 0, "rounds a request may be passed over by a non-FIFO mix policy before being forced (0 = default)")
		scale     = flag.Float64("scale", 50, "solver-time stretch onto the virtual timeline (see autoloop)")
		csvOut    = flag.String("csv", "", "write per-tenant statistics as CSV to this file")
		mixCSVOut = flag.String("mixcsv", "", "write the mix-forming comparison as CSV to this file (-mode compare)")
		jsonOut   = flag.String("json", "", "write the full summary as JSON to this file")
		cacheSave = flag.String("cache-save", "", "write the solved schedule cache as JSON to this file after serving (modes aware/naive)")
		cacheLoad = flag.String("cache-load", "", "seed the schedule cache from a -cache-save file before serving, skipping re-solves of known mixes")
		adaptWait = flag.Bool("adaptivewait", false, "scale the max-wait bound by the oldest request's SLO slack (starved requests force sooner)")
		list      = flag.Bool("list", false, "list available networks, platforms and mix policies, then exit")
	)
	var obsf cliutil.ObsFlags
	obsf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println("networks: ", strings.Join(nn.Names(), ", "))
		names := []string{}
		for _, p := range soc.Platforms() {
			names = append(names, p.Name)
		}
		fmt.Println("platforms:", strings.Join(names, ", "))
		fmt.Println("mixes:    ", strings.Join(serve.MixPolicies(), ", "))
		return
	}
	p, ok := soc.PlatformByName(*platform)
	if !ok {
		fatalf("unknown platform %q", *platform)
	}
	if _, err := serve.NewMixFormer(*mix); err != nil {
		fatalf("%v", err)
	}
	specs, err := cliutil.ParseTenants(*tenants, *arrivals)
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := serve.Generate(specs, *duration, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := serve.Config{
		Platform:        p,
		Policy:          serve.ContentionAware,
		MixPolicy:       *mix,
		ScoreBeam:       *mixBeam,
		MaxBatch:        *maxBatch,
		MaxQueue:        *maxQueue,
		AdmitSLOFactor:  *admitSLO,
		MaxWaitRounds:   *maxWait,
		SolverTimeScale: *scale,
		AdaptiveMaxWait: *adaptWait,
		Tracer:          obsf.Tracer(),
		SketchMetrics:   obsf.Sketch,
		Metrics:         obsf.Metrics(),
		Audit:           obsf.Audit(),
	}
	if cfg.Objective, err = cliutil.ParseObjective(*objective); err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("serving %d requests from %d tenants on %s (%s arrivals, %.0f ms, %s mix forming)\n\n",
		len(tr), len(specs), p.Name, *arrivals, *duration, serve.MixPolicyName(*mix))

	switch *mode {
	case "aware", "naive":
		if *mixCSVOut != "" {
			fatalf("-mixcsv needs -mode compare (the mix-forming comparison is only built there)")
		}
		if *mode == "naive" {
			cfg.Policy = serve.NaiveGPUOnly
		}
		rt, err := serve.New(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if *cacheLoad != "" {
			n, err := cliutil.LoadCache(*cacheLoad, rt.Cache())
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("loaded %d cached mixes from %s\n", n, *cacheLoad)
		}
		sum, err := rt.Serve(tr)
		if err != nil {
			fatalf("%v", err)
		}
		printSummary(os.Stdout, sum)
		if *cacheSave != "" {
			if err := cliutil.SaveCaches(*cacheSave, rt.Cache()); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("wrote %s (%d mixes)\n", *cacheSave, rt.Cache().Len())
		}
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ServingCSV(w, sum) }, sum); err != nil {
			fatalf("%v", err)
		}
	case "compare":
		if *cacheSave != "" || *cacheLoad != "" {
			fatalf("-cache-save/-cache-load need -mode aware or naive (compare builds its own runtimes)")
		}
		cmp, err := serve.Compare(cfg, tr)
		if err != nil {
			fatalf("%v", err)
		}
		printSummary(os.Stdout, cmp.Naive)
		printSummary(os.Stdout, cmp.Aware)
		fmt.Printf("p99 latency:    naive %.2f ms -> aware %.2f ms (%.1f%% better)\n",
			cmp.Naive.Total.P99Ms, cmp.Aware.Total.P99Ms, cmp.P99ImprovementPct())
		fmt.Printf("SLO violations: naive %d -> aware %d (%d avoided)\n\n",
			cmp.Naive.Total.Violations, cmp.Aware.Total.Violations, cmp.ViolationsAvoided())
		mixCmp, err := compareMixesFrom(cfg, tr, cmp.Aware)
		if err != nil {
			fatalf("%v", err)
		}
		printMixComparison(os.Stdout, mixCmp)
		// The CSV keeps the per-tenant naive-vs-aware table; the JSON
		// artifact carries both comparisons so the mix-forming win is
		// scriptable, not stdout-only.
		out := struct {
			Scheduling *serve.Comparison    `json:"scheduling"`
			MixForming *serve.MixComparison `json:"mix_forming"`
		}{cmp, mixCmp}
		if err := cliutil.WriteOutputs(*csvOut, *jsonOut,
			func(w io.Writer) error { return report.ServingComparisonCSV(w, cmp) }, out); err != nil {
			fatalf("%v", err)
		}
		if err := cliutil.WriteOutputs(*mixCSVOut, "",
			func(w io.Writer) error { return report.MixComparisonCSV(w, mixCmp) }, nil); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown mode %q", *mode)
	}
	if err := obsf.WriteArtifacts(); err != nil {
		fatalf("%v", err)
	}
}

func printSummary(w io.Writer, sum *serve.Summary) {
	fmt.Fprintf(w, "== %s | %s mix ==\n", sum.Policy, sum.MixPolicy)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\tnetwork\toffered\trejected\tcompleted\tmean ms\tp50\tp95\tp99\tmax\tviol\trate\treq/s")
	for _, ts := range append(append([]serve.TenantStats(nil), sum.Tenants...), sum.Total) {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%d\t%.1f%%\t%.1f\n",
			ts.Tenant, ts.Network, ts.Offered, ts.Rejected, ts.Completed,
			ts.MeanMs, ts.P50Ms, ts.P95Ms, ts.P99Ms, ts.MaxMs,
			ts.Violations, 100*ts.ViolationRate, ts.ThroughputRPS)
	}
	tw.Flush()
	fmt.Fprintf(w, "rounds=%d  cache: %d misses, %d hits (%.1f%% hit rate), %d upgrades\n\n",
		sum.Rounds, sum.CacheMisses, sum.CacheHits, 100*sum.CacheHitRate, sum.CacheUpgrades)
}

// compareMixesFrom builds the fifo-vs-demand-balance-vs-contention-aware
// comparison, reusing the already-served aware summary as the fifo leg
// when the configured policy is fifo (the default) — the runs are
// byte-identical by the repo's determinism guarantee, so re-serving would
// be pure waste.
func compareMixesFrom(cfg serve.Config, tr serve.Trace, aware *serve.Summary) (*serve.MixComparison, error) {
	if serve.MixPolicyName(cfg.MixPolicy) != serve.MixFIFO || cfg.Mix != nil {
		return serve.CompareMixes(cfg, tr)
	}
	// With observability on, skip the fifo-reuse shortcut: CompareMixes
	// renames each leg so its events land on distinct trace tracks and its
	// counters under distinct metric prefixes, which the hand-built legs
	// below would not (and an attached audit should see every leg's pairs).
	if cfg.Tracer != nil || cfg.Metrics != nil || cfg.Audit != nil {
		return serve.CompareMixes(cfg, tr)
	}
	out := &serve.MixComparison{
		Policies: []string{serve.MixFIFO},
		Results:  []*serve.Summary{aware},
	}
	for _, pol := range []string{serve.MixDemandBalance, serve.MixContentionAware} {
		c := cfg
		c.MixPolicy = pol
		rt, err := serve.New(c)
		if err != nil {
			return nil, err
		}
		sum, err := rt.Serve(tr)
		if err != nil {
			return nil, err
		}
		out.Policies = append(out.Policies, pol)
		out.Results = append(out.Results, sum)
	}
	return out, nil
}

// printMixComparison renders the mix-forming comparison (compare mode):
// the same trace under each batching policy with scheduling held fixed.
func printMixComparison(w io.Writer, cmp *serve.MixComparison) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mix policy\tp50\tp99\tviol\treq/s\tp99 vs fifo\treq/s vs fifo")
	for i, sum := range cmp.Results {
		ts := sum.Total
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\t%.1f\t%+.1f%%\t%+.1f%%\n",
			cmp.Policies[i], ts.P50Ms, ts.P99Ms, ts.Violations, ts.ThroughputRPS,
			cmp.P99ImprovementPct(i), cmp.ThroughputImprovementPct(i))
	}
	tw.Flush()
	last := len(cmp.Results) - 1
	fmt.Fprintf(w, "mix forming:    %s p99 %.2f ms -> %s %.2f ms (%+.1f%% p99, %+.1f%% throughput)\n",
		cmp.Policies[0], cmp.Results[0].Total.P99Ms,
		cmp.Policies[last], cmp.Results[last].Total.P99Ms,
		cmp.P99ImprovementPct(last), cmp.ThroughputImprovementPct(last))
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "serve: ") {
		msg = "serve: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
