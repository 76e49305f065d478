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
// serves the trace on the naive baseline, on the contention-aware runtime
// under -mix, and on the contention-aware runtime under each of fifo,
// demand-balance and contention-aware mix forming that -mix does not
// already select, then reports every leg against the naive baseline:
// the scheduling win and the batching win in one table (-csv, -json).
//
// Solved schedule caches persist across runs: -cache-save writes the
// cache's entries (mix + best-known assignment) as JSON after serving, and
// -cache-load seeds a fresh runtime from such a file so known mixes skip
// re-solving entirely — a restart serves its first rounds on yesterday's
// schedules.
//
// Examples:
//
//	serve                                # two-tenant demo, compare mode
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
	cfg := serve.Config{Policy: serve.ContentionAware}
	cliutil.ServingFlags(flag.CommandLine, &cfg, true)
	var (
		platform  = flag.String("platform", "Orin", "target SoC: Orin, Xavier or SD865")
		tenants   = flag.String("tenants", "alice:VGG19:140:10,bob:ResNet152:140:12", "tenant specs as name:network:rate:slo, comma-separated")
		arrivals  = flag.String("arrivals", "poisson", "arrival process: poisson (rate = req/s) or periodic (rate = period ms)")
		duration  = flag.Float64("duration", 1000, "trace duration in virtual ms")
		seed      = flag.Int64("seed", 1, "load-generator seed")
		mode      = flag.String("mode", "compare", "serving mode: aware, naive or compare")
		csvOut    = flag.String("csv", "", "write per-tenant statistics (or the comparison) as CSV to this file")
		jsonOut   = flag.String("json", "", "write the full summary (or the comparison) as JSON to this file")
		cacheSave = flag.String("cache-save", "", "write the solved schedule cache as JSON to this file after serving (modes aware/naive)")
		cacheLoad = flag.String("cache-load", "", "seed the schedule cache from a -cache-save file before serving, skipping re-solves of known mixes")
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
	specs, err := cliutil.ParseTenants(*tenants, *arrivals)
	if err != nil {
		fatalf("%v", err)
	}
	tr, err := serve.Generate(specs, *duration, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	cfg.Platform = p
	obsf.Apply(&cfg)

	fmt.Printf("serving %d requests from %d tenants on %s (%s arrivals, %.0f ms, %s mix forming)\n\n",
		len(tr), len(specs), p.Name, *arrivals, *duration, serve.MixPolicyName(cfg.MixPolicy))

	switch *mode {
	case "aware", "naive":
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
		rows, err := serve.Compare(tr, serve.Legs(cfg)...)
		if err != nil {
			fatalf("%v", err)
		}
		for _, r := range rows {
			printSummary(os.Stdout, r.Summary.(*serve.Summary))
		}
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

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "serve: ") {
		msg = "serve: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
