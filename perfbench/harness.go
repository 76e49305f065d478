package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the --trace 0 catalogue, in BENCHMARK.json order. Every
// workload reports every metric.
var endToEnd = []metricDef{
	{"req_per_s", "1/s"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"},
	{"alloc_kb_per_req", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"ok_pct", "%"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"sim_p50_ms", "sim_ms"},
	{"sim_slo_pct", "%"},
	{"sim_device_s", "sim_dev_s"},
}

// cpuLayers are the internal packages whose CPU-profile share is reported
// as <layer>.cpu_pct.
var cpuLayers = []string{
	"core", "profiler", "contention", "solver", "schedule", "sim", "baselines",
	"serve", "fleet", "control", "shard", "obs", "nn", "perf",
}

// perLayer is the --trace 1 catalogue, in BENCHMARK.json order. A metric
// a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"profiler.prepare_ms", "ms"},
		{"profiler.alloc_kb", "KiB"},
		{"profiler.prepare_calls", "count"},
		{"contention.fit_ms", "ms"},
		{"contention.err_pct", "%"},
		{"solver.solve_ms", "ms"},
		{"solver.solve_ms_3net", "ms"},
		{"solver.nodes", "count"},
		{"solver.evals", "count"},
		{"solver.pruned", "count"},
		{"solver.eval_us", "us"},
		{"solver.alloc_kb", "KiB"},
		{"sim.measure_us", "us"},
		{"sim.gain_pct", "%"},
		{"sim.paper_gap_pp", "pp"},
		{"sim.p99_ms", "sim_ms"},
		{"baselines.ms", "ms"},
		{"serve.admit_us", "us"},
		{"serve.step_us", "us"},
		{"serve.mixform_us", "us"},
		{"serve.eligible", "count"},
		{"serve.summary_ms", "ms"},
		{"serve.allocs_per_round", "count"},
		{"serve.batch_size", "count"},
		{"serve.wait_ms_p50", "sim_ms"},
		{"serve.wait_ms_p99", "sim_ms"},
		{"serve.forced", "count"},
		{"serve.queue_peak", "count"},
		{"serve.cache_hit_pct", "%"},
		{"serve.cold_fill_s", "s"},
		{"serve.cold_misses", "count"},
		{"serve.cold_probes", "count"},
		{"serve.cold_solver_nodes", "count"},
		{"obs.events_per_req", "count"},
		{"obs.export_ms", "ms"},
		{"obs.export_kb_per_req", "KiB"},
		{"obs.retained_mb", "MiB"},
		{"obs.overhead_pct", "%"},
		{"obs.cpu_us_per_req", "us"},
		{"obs.peak_rss_mb", "MiB"},
		{"shard.new_ms", "ms"},
		{"shard.round_us", "us"},
		{"shard.rounds", "count"},
		{"shard.gossip_entries", "count"},
		{"shard.warm_hits", "count"},
		{"shard.assists", "count"},
		{"shard.deferred", "count"},
		{"shard.handoffs", "count"},
		{"control.scale_events", "count"},
		{"control.migrations", "count"},
		{"fleet.peak_devices", "count"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	return append(defs,
		metricDef{"runtime.malloc_pct", "%"},
		metricDef{"runtime.gc_pct", "%"},
		metricDef{"bench.trace_overhead_pct", "%"},
	)
}()

// minCycles is the fewest cycles a timed phase runs, whatever its budget
// (enough for one of each pass kind in the traced run); a cycle is one
// pass over each of the workload's inputs.
const minCycles = 3

// sample is one measured pass.
type sample struct {
	out    *passOut
	allocs float64
	bytes  float64
	// peakMiB is the resident-set high-water mark during the pass, or NaN
	// when the mark could not be reset before it.
	peakMiB float64
}

// op is one timed operation: a plan on plan-paper, a whole pass elsewhere.
type op struct{ wallMs, cpuMs float64 }

// startOp starts timing an operation; the returned function ends it.
func startOp() func() op {
	c0, t0 := cpuSeconds(), time.Now()
	return func() op {
		return op{wallMs: float64(time.Since(t0).Nanoseconds()) / 1e6, cpuMs: 1000 * (cpuSeconds() - c0)}
	}
}

// timedPhase runs passes until the budget is spent and the last cycle is
// complete; pass i replays input i mod inputs, kindFor picks how it runs,
// and afterCycle runs after every cycle. Each pass's outputs are checked,
// outside its measured interval, and then dropped, so the retained
// outputs of earlier passes do not inflate the peak resident set.
func timedPhase(b bench, budget time.Duration, kindFor func(i int) passKind, probes map[passKind]*probe, afterCycle func() error) ([]sample, error) {
	var samples []sample
	n := b.inputs()
	start := time.Now()
	for i := 0; i < minCycles*n || time.Since(start) < budget || i%n != 0; i++ {
		if i > 0 && i%n == 0 {
			if err := afterCycle(); err != nil {
				return nil, err
			}
		}
		kind := kindFor(i)
		s, err := measure(b, i%n, kind, probes[kind])
		if err != nil {
			return nil, err
		}
		s.out.failed += b.check(s.out)
		s.out.data = nil
		samples = append(samples, s)
	}
	return samples, nil
}

// measure runs one pass between allocation and peak-memory readings. A
// traced or observed pass runs under a CPU profile that brackets the
// readings, so starting and stopping it stays outside the measured
// interval.
func measure(b bench, input int, kind passKind, pr *probe) (sample, error) {
	if kind != plainPass {
		if err := pr.startProfile(); err != nil {
			return sample{}, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peakMiB := math.NaN()
	resetErr := resetPeakRSS()
	var (
		out *passOut
		err error
	)
	switch kind {
	case plainPass:
		out, err = b.pass(input, nil)
	case tracedPass:
		out, err = b.pass(input, pr)
	case observedPass:
		out, err = b.(observer).observe(input, pr)
	}
	if resetErr == nil {
		peakMiB = peakRSSMiB()
	}
	runtime.ReadMemStats(&m1)
	if kind != plainPass {
		if perr := pr.stopProfile(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return sample{}, err
	}
	if out.requests < 1 || len(out.ops) == 0 {
		return sample{}, fmt.Errorf("pass attempted no requests")
	}
	s := sample{
		out:     out,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
		peakMiB: peakMiB,
	}
	out.input, out.kind, out.allocs = input, kind, s.allocs
	return s, nil
}

// hostMetrics folds the samples into the host end-to-end metrics. The
// rates are totals over every pass: requests over summed operation wall
// time, and CPU time and allocations per request. Totals average the
// host's speed swings within a run, where a median would follow whichever
// speed held the most passes. The operation percentiles are over the
// distinct operations (the k-th operation of a pass over one input), each
// at its mean wall time over the passes. The peak resident set is the
// median of the passes' own peaks, or the whole process's when those are
// unknown.
func hostMetrics(samples []sample) map[string]float64 {
	type opKey struct{ input, k int }
	opWall := map[opKey][]float64{}
	var req, wallMs, cpuMs, allocs, bytes float64
	var peaks []float64
	for _, s := range samples {
		req += float64(s.out.requests)
		allocs += s.allocs
		bytes += s.bytes
		peaks = append(peaks, s.peakMiB)
		for k, o := range s.out.ops {
			wallMs += o.wallMs
			cpuMs += o.cpuMs
			key := opKey{s.out.input, k}
			opWall[key] = append(opWall[key], o.wallMs)
		}
	}
	var opMs []float64
	for _, w := range opWall {
		opMs = append(opMs, mean(w))
	}
	sort.Float64s(opMs)
	peak := median(peaks)
	if math.IsNaN(peak) {
		peak = peakRSSMiB()
	}
	return map[string]float64{
		"req_per_s":        1000 * req / wallMs,
		"cpu_us_per_req":   1000 * cpuMs / req,
		"allocs_per_req":   allocs / req,
		"alloc_kb_per_req": bytes / 1024 / req,
		"peak_rss_mb":      peak,
		"op_ms_p50":        quantile(opMs, 0.50),
		"op_ms_p95":        quantile(opMs, 0.95),
	}
}

func countOps(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += len(s.out.ops)
	}
	return n
}

// cpuSeconds is the process's user plus system CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets this process's resident-set high-water mark to its
// current resident set (clear_refs value 5), so a pass's own peak can be
// read after it.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("5"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// peakRSSMiB reads this process's resident-set high-water mark (VmHWM).
// getrusage's ru_maxrss is not used: it can report a parent's peak across
// exec.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// stealJiffies reads the host's stolen CPU time (all CPUs) and its total
// CPU time from /proc/stat, in clock ticks; zeros if unavailable.
func stealJiffies() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// mean of a sample (0 when empty).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median of an unsorted sample (NaN when empty).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of a sorted sample, interpolating linearly between ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// digest fingerprints a sequence of values; floats print in their
// shortest exact form, so equal digests mean bit-identical outputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(vals ...any) {
	for _, v := range vals {
		fmt.Fprintf(d.h, "%v\x00", v)
	}
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
