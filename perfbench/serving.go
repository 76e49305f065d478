package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"haxconn/internal/obs"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// The serve-quartet traces: the mixed-demand quartet's four tenants with
// Poisson arrivals at the canonical 125 rps each (one every 8 ms on
// average) over 20 s of virtual time. Each run replays quartetTraces
// traces, seeded from the run's seed, so one run averages over several
// arrival patterns instead of resting on one.
const (
	quartetRateRPS    = 125
	quartetDurationMs = 20000
	quartetTraces     = 4
)

// quartet is the serve-quartet workload: one Orin serves the traces with
// contention-aware mix forming from a schedule cache filled during set-up.
// One request is one served request. It is also the observer: its traced
// run adds passes with the observability sinks attached and exported.
type quartet struct {
	cfg    serve.Config
	traces []serve.Trace
	cache  *serve.Cache
	cold   coldFill
	// ref holds each input's first plain pass's outputs; exports holds
	// each input's first observed pass's export counts.
	ref     []*quartetRef
	exports []*exportCounts
}

// exportCounts is what one observed pass exported.
type exportCounts struct{ events, bytes int64 }

// coldFill describes set-up's cold passes, which fill the schedule cache.
type coldFill struct {
	seconds                     float64
	misses, probes, solverNodes int
}

// quartetOut is one pass's outputs.
type quartetOut struct {
	summary     *serve.Summary
	completions []serve.Completion
	export      *exportCounts // observed passes only
}

// quartetRef is what the metrics need from an input's reference pass.
type quartetRef struct {
	summary          *serve.Summary
	latencies, waits []float64 // served requests, virtual ms
}

// quartetTrace is the j-th trace of the run with the given seed.
func quartetTrace(seed int64, j int) (serve.Trace, error) {
	specs := serve.MixedDemandTenants()
	for i := range specs {
		specs[i].PeriodMs = 0
		specs[i].RateRPS = quartetRateRPS
	}
	return serve.Generate(specs, quartetDurationMs, seed*quartetTraces+int64(j))
}

// setupQuartet generates the traces and serves each once, cold, into one
// schedule cache.
func setupQuartet(seed int64) (bench, error) {
	b := &quartet{ref: make([]*quartetRef, quartetTraces), exports: make([]*exportCounts, quartetTraces)}
	b.cfg = serve.Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: serve.MixContentionAware}
	t0 := time.Now()
	for j := 0; j < quartetTraces; j++ {
		tr, err := quartetTrace(seed, j)
		if err != nil {
			return nil, err
		}
		b.traces = append(b.traces, tr)
		cfg := b.cfg
		if b.cache != nil {
			b.cache.Rewind()
			cfg.SharedCache = b.cache
		}
		rt, err := serve.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := rt.Serve(tr); err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		b.cache = rt.Cache()
		b.cold.misses += b.cache.Misses
		b.cold.probes += b.cache.Probes
	}
	b.cold.seconds = time.Since(t0).Seconds()
	b.cold.solverNodes = b.cache.SolverNodes()
	return b, nil
}

func (b *quartet) inputs() int { return quartetTraces }

// passConfig is the configuration of one warm pass: the rewound shared
// cache, plus fresh observability sinks when withObs.
func (b *quartet) passConfig(withObs bool) serve.Config {
	b.cache.Rewind()
	cfg := b.cfg
	cfg.SharedCache = b.cache
	if withObs {
		cfg.Tracer, cfg.Audit, cfg.Metrics = obs.NewTracer(), obs.NewAudit(), obs.NewRegistry()
	}
	return cfg
}

func (b *quartet) pass(input int, pr *probe) (*passOut, error) {
	end := startOp()
	tr := b.traces[input]
	cfg := b.passConfig(false)
	var (
		rt  *serve.Runtime
		sum *serve.Summary
		err error
	)
	if pr == nil {
		if rt, err = serve.New(cfg); err == nil {
			sum, err = rt.Serve(tr)
		}
	} else {
		cfg.Mix = &timedMix{inner: serve.ContentionAwareMix(cfg.ScoreBeam), pr: pr}
		if rt, err = serve.New(cfg); err == nil {
			sum, err = serveDecomposed(rt, cfg, tr, pr)
		}
	}
	if err != nil {
		return nil, err
	}
	if pr != nil {
		pr.add("profiler.prepare_calls", float64(rt.PrepareCalls()))
	}
	return quartetPass(tr, rt, sum, end(), nil), nil
}

// observe serves the input with a fresh Tracer, Audit and Registry
// attached, then exports the JSONL trace, the Chrome trace and the metrics
// to a writer that counts and discards the bytes.
func (b *quartet) observe(input int, pr *probe) (*passOut, error) {
	end := startOp()
	tr := b.traces[input]
	cfg := b.passConfig(true)
	rt, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	n, err := export(cfg)
	pr.since("obs.export", t)
	if err != nil {
		return nil, err
	}
	ex := &exportCounts{events: int64(cfg.Tracer.Len()), bytes: n}
	pr.add("obs.events", float64(ex.events))
	pr.add("obs.export_bytes", float64(ex.bytes))
	pr.add("obs.requests", float64(len(tr)))
	return quartetPass(tr, rt, sum, end(), ex), nil
}

func quartetPass(tr serve.Trace, rt *serve.Runtime, sum *serve.Summary, o op, ex *exportCounts) *passOut {
	return &passOut{
		requests: len(tr),
		failed:   sum.Total.Rejected,
		rounds:   sum.Rounds,
		ops:      []op{o},
		data:     &quartetOut{summary: sum, completions: rt.Completions(), export: ex},
	}
}

// serveDecomposed drives Offer, NextStartMs and Step exactly as
// Runtime.Serve does, timing each call, then fills the metrics and folds
// the summary.
func serveDecomposed(rt *serve.Runtime, cfg serve.Config, tr serve.Trace, pr *probe) (*serve.Summary, error) {
	rt.Reset()
	reqs := append(serve.Trace(nil), tr...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ArrivalMs < reqs[j].ArrivalMs })
	next := 0
	for next < len(reqs) || rt.QueueDepth() > 0 {
		if next < len(reqs) && reqs[next].ArrivalMs <= rt.NextStartMs() {
			t := time.Now()
			_, err := rt.Offer(reqs[next])
			pr.since("serve.offer", t)
			if err != nil {
				return nil, err
			}
			next++
			continue
		}
		t := time.Now()
		err := rt.Step()
		pr.since("serve.step", t)
		if err != nil {
			return nil, err
		}
	}
	// Serve fills cfg.Metrics; without one the counters go to a private
	// registry, read here for the forced-dispatch and queue-peak counts.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := time.Now()
	rt.FillMetrics(reg)
	sum := rt.Summary()
	pr.since("serve.summary", t)
	p := "serve." + rt.Name() + "."
	pr.add("serve.forced", reg.Get(p+"forced_dispatches"))
	pr.add("serve.queue_peak", reg.Get(p+"queue_peak"))
	return sum, nil
}

// timedMix wraps a mix-forming policy, timing each Form call through the
// Config.Mix hook. It forwards the inner policy's capabilities, so the
// runtime wires the same demand estimates and batch scorers as for the
// unwrapped policy.
type timedMix struct {
	inner serve.MixFormer
	pr    *probe
}

func (m *timedMix) Name() string      { return m.inner.Name() }
func (m *timedMix) DemandAware() bool { return m.inner.DemandAware() }

// ScoreAware reports the inner policy's scoring capability.
func (m *timedMix) ScoreAware() bool {
	sa, ok := m.inner.(interface{ ScoreAware() bool })
	return ok && sa.ScoreAware()
}

func (m *timedMix) Form(in serve.FormInput) []int {
	t := time.Now()
	sel := m.inner.Form(in)
	m.pr.since("serve.form", t)
	m.pr.add("serve.eligible", float64(len(in.Eligible)))
	return sel
}

// export writes the pass's JSONL trace, Chrome trace and metrics (the
// audit folded in) to a writer that counts and discards the bytes.
func export(cfg serve.Config) (int64, error) {
	var w countingWriter
	cfg.Audit.FillMetrics(cfg.Metrics)
	if err := cfg.Tracer.WriteJSONL(&w); err != nil {
		return 0, err
	}
	if err := cfg.Tracer.WriteChromeTrace(&w); err != nil {
		return 0, err
	}
	if err := cfg.Metrics.WriteJSONL(&w); err != nil {
		return 0, err
	}
	return w.n, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// check validates a pass: every offered request ends exactly once,
// completed or rejected; every served request satisfies arrival <= start
// <= end within its round; the device's rounds never overlap; and every
// observed pass over an input exports the same events and bytes. The
// digest covers the summary and every completion, so an observed or
// traced pass must reproduce the plain pass's outputs exactly.
func (b *quartet) check(out *passOut) int {
	q := out.data.(*quartetOut)
	failed := checkCompletions(q.completions, len(b.traces[out.input]))
	sumJSON, err := json.Marshal(q.summary)
	if err != nil {
		failed++
	}
	d := newDigest()
	d.add(string(sumJSON))
	for _, c := range q.completions {
		d.add(c.ID, c.StartMs, c.EndMs, c.Rejected)
	}
	out.digest = d.sum()
	if ex := q.export; ex != nil {
		if first := b.exports[out.input]; first == nil {
			b.exports[out.input] = ex
		} else if *first != *ex {
			failed++
		}
	}
	if b.ref[out.input] == nil && out.kind == plainPass {
		b.ref[out.input] = quartetReference(q)
	}
	return failed
}

// checkCompletions returns how many requests break the serving
// invariants: IDs 0..n-1 each end exactly once, arrival <= start <= end
// <= round end, and no two rounds overlap.
func checkCompletions(cs []serve.Completion, n int) int {
	failed := 0
	seen := make([]int, n)
	type round struct{ start, end float64 }
	rounds := map[float64]float64{}
	for _, c := range cs {
		if c.ID < 0 || c.ID >= n {
			failed++
			continue
		}
		seen[c.ID]++
		if c.Rejected {
			continue
		}
		end := c.StartMs + c.RoundMakespanMs
		if !(c.ArrivalMs <= c.StartMs && c.StartMs <= c.EndMs && c.EndMs <= end) {
			failed++
		}
		if e, ok := rounds[c.StartMs]; ok && e != end {
			failed++
		}
		rounds[c.StartMs] = end
	}
	for _, k := range seen {
		if k != 1 {
			failed++
		}
	}
	var rs []round
	for s, e := range rounds {
		rs = append(rs, round{s, e})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	for i := 1; i < len(rs); i++ {
		if rs[i].start < rs[i-1].end {
			failed++
		}
	}
	return failed
}

func quartetReference(q *quartetOut) *quartetRef {
	ref := &quartetRef{summary: q.summary}
	for _, c := range q.completions {
		if !c.Rejected {
			ref.latencies = append(ref.latencies, c.LatencyMs)
			ref.waits = append(ref.waits, c.StartMs-c.ArrivalMs)
		}
	}
	return ref
}

func (b *quartet) finish() int { return 0 }

// pooled returns the reference passes' served latencies and queue waits
// over every input, sorted, plus the summed totals.
func (b *quartet) pooled() (lat, waits []float64, offered, attained, rounds float64) {
	for _, r := range b.ref {
		lat = append(lat, r.latencies...)
		waits = append(waits, r.waits...)
		t := r.summary.Total
		offered += float64(t.Offered)
		attained += float64(t.Completed - t.Violations)
		rounds += float64(r.summary.Rounds)
	}
	sort.Float64s(lat)
	sort.Float64s(waits)
	return lat, waits, offered, attained, rounds
}

// sim reports the simulated metrics pooled over every input's reference
// pass: latency percentiles over all served requests, SLO attainment over
// all offered ones, and the mean device-seconds of one trace.
func (b *quartet) sim() map[string]float64 {
	lat, _, offered, attained, _ := b.pooled()
	var device float64
	for _, r := range b.ref {
		device += r.summary.DurationMs / 1000
	}
	return map[string]float64{
		"sim_p50_ms":   quantile(lat, 0.50),
		"sim_slo_pct":  100 * attained / offered,
		"sim_device_s": device / float64(len(b.ref)),
	}
}

func (b *quartet) layers(pr *probe, traced []*passOut, m map[string]float64) {
	passes := float64(len(traced))
	var perRound []float64
	for _, o := range traced {
		perRound = append(perRound, o.allocs/float64(o.rounds))
	}
	lat, waits, _, _, rounds := b.pooled()
	var hits, lookups float64
	for _, r := range b.ref {
		hits += float64(r.summary.CacheHits)
		lookups += float64(r.summary.CacheHits + r.summary.CacheMisses)
	}
	m["profiler.prepare_calls"] = pr.sums["profiler.prepare_calls"] / passes
	m["sim.p99_ms"] = quantile(lat, 0.99)
	m["serve.admit_us"] = 1000 * pr.perCall("serve.offer")
	m["serve.step_us"] = 1000 * pr.perCall("serve.step")
	m["serve.mixform_us"] = 1000 * pr.perCall("serve.form")
	m["serve.eligible"] = pr.mean("serve.eligible", "serve.form.calls")
	m["serve.summary_ms"] = pr.perCall("serve.summary")
	m["serve.allocs_per_round"] = median(perRound)
	m["serve.batch_size"] = float64(len(waits)) / rounds
	m["serve.wait_ms_p50"] = quantile(waits, 0.50)
	m["serve.wait_ms_p99"] = quantile(waits, 0.99)
	m["serve.forced"] = pr.sums["serve.forced"] / passes
	m["serve.queue_peak"] = pr.sums["serve.queue_peak"] / passes
	m["serve.cache_hit_pct"] = 100 * hits / lookups
	m["serve.cold_fill_s"] = b.cold.seconds
	m["serve.cold_misses"] = float64(b.cold.misses)
	m["serve.cold_probes"] = float64(b.cold.probes)
	m["serve.cold_solver_nodes"] = float64(b.cold.solverNodes)
}

// obsLayers reports what the observed passes recorded: events and export
// bytes per request, export time per pass, and the retained heap.
func (b *quartet) obsLayers(pr *probe, m map[string]float64) {
	m["obs.events_per_req"] = pr.mean("obs.events", "obs.requests")
	m["obs.export_ms"] = pr.perCall("obs.export")
	m["obs.export_kb_per_req"] = pr.mean("obs.export_bytes", "obs.requests") / 1024
	m["obs.retained_mb"] = b.retainedMiB()
}

// retainedMiB serves the first trace once more with the observability
// sinks attached and returns the live heap after a forced collection,
// before export.
func (b *quartet) retainedMiB() float64 {
	cfg := b.passConfig(true)
	rt, err := serve.New(cfg)
	if err != nil {
		return math.NaN()
	}
	if _, err := rt.Serve(b.traces[0]); err != nil {
		return math.NaN()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(rt)
	runtime.KeepAlive(cfg)
	return float64(ms.HeapAlloc) / (1 << 20)
}
