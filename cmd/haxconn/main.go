// Command haxconn generates contention-aware schedules for concurrent DNN
// inference on a heterogeneous SoC and measures them on the simulator.
//
// Examples:
//
//	haxconn -platform Xavier -nets VGG19,ResNet152 -objective latency
//	haxconn -platform Orin -nets GoogleNet,ResNet101 -objective fps -frames 1
//	haxconn -platform Orin -nets GoogleNet,ResNet152,FCN-ResNet18 -deps 1:0 -compare
//	haxconn -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"haxconn/internal/core"
	"haxconn/internal/nn"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
	"haxconn/internal/trace"
)

func main() {
	var (
		platform  = flag.String("platform", "Orin", "target SoC: Orin, Xavier or SD865")
		nets      = flag.String("nets", "", "comma-separated network names (required)")
		objective = flag.String("objective", "latency", "objective: latency (Eq. 11) or fps (Eq. 10)")
		deps      = flag.String("deps", "", "pipeline dependencies as item:prereq pairs, e.g. \"1:0,2:0\"")
		iters     = flag.String("iterations", "", "comma-separated per-network iteration counts")
		frames    = flag.Int("frames", 0, "frame-count override for FPS (1 for streaming pipelines)")
		maxGroups = flag.Int("maxgroups", 0, "layer-group cap per network (default 12)")
		maxTrans  = flag.Int("maxtransitions", 0, "transition budget per network (default 1)")
		compare   = flag.Bool("compare", false, "also measure all five baselines")
		traceOut  = flag.String("trace", "", "write the executed timeline as a Chrome trace (chrome://tracing) to this file")
		list      = flag.Bool("list", false, "list available networks and platforms, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("networks: ", strings.Join(nn.Names(), ", "))
		names := []string{}
		for _, p := range soc.Platforms() {
			names = append(names, p.Name)
		}
		fmt.Println("platforms:", strings.Join(names, ", "))
		return
	}
	if *nets == "" {
		fmt.Fprintln(os.Stderr, "haxconn: -nets is required (try -list)")
		os.Exit(2)
	}
	p, ok := soc.PlatformByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "haxconn: unknown platform %q\n", *platform)
		os.Exit(2)
	}
	req := core.Request{
		Platform:       p,
		Networks:       strings.Split(*nets, ","),
		FrameCount:     *frames,
		MaxGroups:      *maxGroups,
		MaxTransitions: *maxTrans,
	}
	switch *objective {
	case "latency":
		req.Objective = schedule.MinMaxLatency
	case "fps":
		req.Objective = schedule.MaxThroughput
	default:
		fmt.Fprintf(os.Stderr, "haxconn: unknown objective %q\n", *objective)
		os.Exit(2)
	}
	if *deps != "" {
		after, err := parseDeps(*deps, len(req.Networks))
		if err != nil {
			fmt.Fprintln(os.Stderr, "haxconn:", err)
			os.Exit(2)
		}
		req.After = after
	}
	if *iters != "" {
		for _, tok := range strings.Split(*iters, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fmt.Fprintf(os.Stderr, "haxconn: bad iteration count %q\n", tok)
				os.Exit(2)
			}
			req.Iterations = append(req.Iterations, n)
		}
	}

	if *compare {
		cmp, err := core.Compare(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "haxconn:", err)
			os.Exit(1)
		}
		fmt.Printf("%-10s %10s %10s\n", "scheduler", "latency", "fps")
		for _, name := range []string{"GPU-only", "GPU&DSA", "Mensa", "Herald", "H2H"} {
			r := cmp.Baselines[name]
			fmt.Printf("%-10s %8.2fms %10.1f\n", name, r.MeasuredMs, r.FPS)
		}
		h := cmp.HaXCoNN
		fmt.Printf("%-10s %8.2fms %10.1f\n", "HaX-CoNN", h.MeasuredMs, h.FPS)
		best, _ := cmp.BestBaseline(req.Objective)
		fmt.Printf("\nimprovement over best baseline (%s): %.1f%%\n", best, 100*cmp.Improvement(req.Objective))
		fmt.Println("schedule:", h.Description)
		fmt.Printf("solver: %d nodes, %d evals, %v\n", h.SolverStats.Nodes, h.SolverStats.Evals, h.SolverStats.Elapsed)
		return
	}

	res, err := core.Plan(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "haxconn:", err)
		os.Exit(1)
	}
	fmt.Println("schedule:   ", res.Description)
	fmt.Printf("latency:     %.2f ms (predicted %.2f)\n", res.MeasuredMs, res.PredictedMs)
	fmt.Printf("throughput:  %.1f fps\n", res.FPS)
	for i, l := range res.ItemLatencyMs {
		fmt.Printf("  %-14s %.2f ms\n", req.Networks[i], l)
	}
	fmt.Printf("solver:      %d nodes, %d evals (%d cut), pruned %d, %v\n",
		res.SolverStats.Nodes, res.SolverStats.Evals, res.SolverStats.Cut, res.SolverStats.Pruned, res.SolverStats.Elapsed)
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "haxconn:", err)
			os.Exit(1)
		}
		fmt.Println("trace:      ", *traceOut)
	}
}

// writeTrace re-executes the chosen schedule on the ground-truth simulator
// and dumps the timeline as a Chrome trace.
func writeTrace(path string, res *core.Result) error {
	gt := sim.GroundTruth{SatBW: res.Problem.Platform.SatBW()}
	ev, err := schedule.Evaluate(res.Problem, res.Profile, res.Schedule, gt)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, res.Problem.Platform, ev.Result); err != nil {
		return err
	}
	return f.Close()
}

// parseDeps parses "1:0,2:0" into per-item prerequisite lists.
func parseDeps(spec string, n int) ([][]int, error) {
	after := make([][]int, n)
	for _, pair := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(pair), ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad dependency %q (want item:prereq)", pair)
		}
		item, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad item in %q", pair)
		}
		pre, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad prerequisite in %q", pair)
		}
		if item < 0 || item >= n || pre < 0 || pre >= n {
			return nil, fmt.Errorf("dependency %q out of range (have %d networks)", pair, n)
		}
		after[item] = append(after[item], pre)
	}
	return after, nil
}
