// Command perfbench is the repository benchmark: it replays a seeded,
// offline workload through the program's public entry points, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// alternates plain passes with traced passes that time each public call
// into a layer, record counters and a CPU profile (and, on serve-quartet,
// observed passes that attach and export the observability sinks), and the
// metrics are the per-layer ones (see perfbench/README.md for the
// catalogue). Run it from the repository root with
//
//	bash perfbench/run.sh --workload serve-quartet --seed 1 --seconds 30 --trace 0
//
// or with --workload all to run every workload, each in its own process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workload is one benchmark scenario. Each runs in its own process with
// GOMAXPROCS pinned to procs.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs at.
	procs int
	// setupReps is how many times set-up is timed over a run; setup_s is
	// the median.
	setupReps int
	// setupBatch is how many set-ups one timing covers (default 1), so a
	// set-up far shorter than a millisecond is not timed on its own.
	setupBatch int
	// setup builds the workload's inputs from the seed.
	setup func(seed int64) (bench, error)
}

// bench is one set-up workload instance.
type bench interface {
	// inputs is how many distinct inputs the passes cycle through.
	inputs() int
	// pass runs one timed pass over the given input. A nil probe is the
	// plain pass; a non-nil probe drives the decomposed public calls and
	// records layer timings.
	pass(input int, pr *probe) (*passOut, error)
	// check validates a pass's outputs outside the timed region and returns
	// the number of requests that failed a check.
	check(out *passOut) int
	// finish runs the once-per-run checks and returns the number of
	// failures they found.
	finish() int
	// sim returns the simulated end-to-end metrics (virtual time of the
	// modelled SoC) of the first plain passes.
	sim() map[string]float64
	// layers fills the per-layer metrics owned by the workload from the
	// probe and the traced passes.
	layers(pr *probe, traced []*passOut, m map[string]float64)
}

// observer is a workload that can also serve with the observability sinks
// attached and exported, so the traced run measures the cost of observing
// against plain passes of the same process.
type observer interface {
	// observe runs one pass over the input with fresh sinks, exports them
	// and records the export in the probe.
	observe(input int, pr *probe) (*passOut, error)
	// obsLayers fills the obs.* metrics recorded by observe.
	obsLayers(pr *probe, m map[string]float64)
}

// passKind says how a pass ran.
type passKind int

const (
	plainPass    passKind = iota // the program's entry points, untimed inside
	tracedPass                   // decomposed public calls, each timed, CPU-profiled
	observedPass                 // plain, with the observability sinks attached and exported
)

// passOut is what one pass produced.
type passOut struct {
	input    int      // the input the pass replayed
	requests int      // requests attempted
	failed   int      // requests that errored, were rejected or failed a check
	rounds   int      // dispatch rounds (serving) or plans (plan-paper)
	ops      []op     // the pass's timed operations, in a fixed order
	kind     passKind // how the pass ran
	allocs   float64  // heap allocations during the pass
	digest   string   // digest of every output, for identity checks
	data     any      // workload-specific outputs, dropped once checked
}

// workloads are the benchmark's scenarios, in BENCHMARK.json order. Each
// runs at GOMAXPROCS 1: on a 2-vCPU host with steal time, req_per_s varied
// by 35-36% across five seeds at GOMAXPROCS 2 and by 5-7% at 1 (see
// perfbench/README.md).
var workloads = []workload{
	{name: "plan-paper", procs: 1, setupReps: 9, setupBatch: 50, setup: setupPlanPaper},
	{name: "serve-quartet", procs: 1, setupReps: 3, setup: setupQuartet},
	{name: "region-k4", procs: 1, setupReps: 15, setupBatch: 5, setup: setupRegion},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// runAll runs every workload in its own child process, one after another.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	names     []string // metric names in catalogue order
	metrics   map[string]metric
	notes     []string
}

func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(f, "  # %s\n", n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(f, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	failPct := 100 * float64(r.failed) / float64(r.attempted)
	fmt.Fprintf(f, "  %-28s %14.6g %%  (%d of %d attempted; correct=%v)\n", "fail_pct", failPct, r.failed, r.attempted, r.correct)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(f, string(out))
}

// run sets the workload up, measures it for the given time and returns its
// metrics: the end-to-end ones, or with traced the per-layer ones.
func run(w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	runtime.GOMAXPROCS(w.procs)
	// Set-up is timed setupReps times, spread over the run so that the
	// median does not rest on the host's state in one short window: once
	// before the timed phase (that instance is the one measured), then
	// between cycles, at most one timing per budget/setupReps.
	var setups []float64
	batch := max(w.setupBatch, 1)
	setup := func() (bench, error) {
		var b bench
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			nb, err := w.setup(seed)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			b = nb
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(batch))
		return b, nil
	}
	b, err := setup()
	if err != nil {
		return nil, err
	}
	nextSetup := time.Now()
	betweenCycles := func() error {
		if traced || len(setups) >= w.setupReps || time.Now().Before(nextSetup) {
			return nil
		}
		nextSetup = time.Now().Add(budget / time.Duration(w.setupReps))
		_, err := setup()
		return err
	}
	res := &result{workload: w.name, metrics: map[string]metric{}}
	// The traced run rotates whole cycles (one pass over each input)
	// through the pass kinds: plain, traced, and observed where the
	// workload can observe.
	kinds := []passKind{plainPass}
	if traced {
		kinds = append(kinds, tracedPass)
		if _, ok := b.(observer); ok {
			kinds = append(kinds, observedPass)
		}
	}
	kindFor := func(i int) passKind { return kinds[(i/b.inputs())%len(kinds)] }
	probes := map[passKind]*probe{tracedPass: newProbe(), observedPass: newProbe()}
	steal0, total0 := stealJiffies()
	samples, err := timedPhase(b, budget, kindFor, probes, betweenCycles)
	if err != nil {
		return nil, err
	}
	for !traced && len(setups) < w.setupReps {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("seed %d, GOMAXPROCS %d, %d timings of %d set-ups, timed phase %s, %d inputs",
		seed, w.procs, len(setups), batch, budget, b.inputs()))
	if steal1, total1 := stealJiffies(); total1 > total0 {
		res.notes = append(res.notes, fmt.Sprintf("host steal %.1f%% of all CPU time during the timed phase",
			100*(steal1-steal0)/(total1-total0)))
	}
	byKind := map[passKind][]sample{}
	for _, s := range samples {
		res.attempted += s.out.requests
		res.failed += s.out.failed
		byKind[s.out.kind] = append(byKind[s.out.kind], s)
	}
	res.failed += b.finish()
	// Every pass, traced or observed or not, must reproduce the first plain
	// pass over the same input exactly.
	first := map[int]string{}
	for _, s := range byKind[plainPass] {
		if _, ok := first[s.out.input]; !ok {
			first[s.out.input] = s.out.digest
		}
	}
	for _, s := range samples {
		if s.out.digest != first[s.out.input] {
			res.notes = append(res.notes, "CHECK FAILED: a pass's outputs differ from the first plain pass over its input")
			res.failed++
			break
		}
	}
	res.correct = res.failed == 0

	if traced {
		m := map[string]float64{}
		var outs []*passOut
		for _, s := range byKind[tracedPass] {
			outs = append(outs, s.out)
		}
		pr := probes[tracedPass]
		b.layers(pr, outs, m)
		pr.cpuShares(m)
		plain := hostMetrics(byKind[plainPass])
		m["bench.trace_overhead_pct"] = 100 * (plain["req_per_s"]/hostMetrics(byKind[tracedPass])["req_per_s"] - 1)
		if o := byKind[observedPass]; len(o) > 0 {
			obsPr := probes[observedPass]
			b.(observer).obsLayers(obsPr, m)
			host := hostMetrics(o)
			m["obs.overhead_pct"] = 100 * (plain["req_per_s"]/host["req_per_s"] - 1)
			m["obs.cpu_us_per_req"] = host["cpu_us_per_req"]
			m["obs.peak_rss_mb"] = host["peak_rss_mb"]
			m["obs.cpu_pct"] = obsPr.share("obs")
		}
		res.notes = append(res.notes, fmt.Sprintf("%d plain, %d traced and %d observed passes; %d CPU profile samples in traced passes",
			len(byKind[plainPass]), len(outs), len(byKind[observedPass]), pr.profSamples))
		res.record(perLayer, m)
		return res, nil
	}
	host := hostMetrics(samples)
	host["setup_s"] = median(setups)
	host["ok_pct"] = 100 * float64(res.attempted-res.failed) / float64(res.attempted)
	for k, v := range b.sim() {
		host[k] = v
	}
	res.notes = append(res.notes, fmt.Sprintf("%d passes, %d timed operations", len(samples), countOps(samples)))
	res.record(endToEnd, host)
	return res, nil
}

// record stores the catalogue's metrics in order. A metric that could not
// be measured (NaN or infinite) fails the run and reads 0.
func (r *result) record(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.notes = append(r.notes, "CHECK FAILED: "+d.name+" could not be measured")
			r.failed++
			r.correct = false
			v = 0
		}
		r.names = append(r.names, d.name)
		r.metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
}
