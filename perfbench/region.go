package main

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"time"

	"haxconn/internal/obs"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
)

// regionShards is K, the region-k4 plane's shard count.
const regionShards = 4

// newTimings is how many shard.New calls one shard.new_ms figure times,
// so the figure is not a sub-millisecond single reading.
const newTimings = 200

// region is the region-k4 workload: shard.DemoRegionControl's 48 Orins
// under a K=4 sharded control plane, serving shard.DemoRegionTrace(seed).
// Each pass builds a fresh plane. One request is one served request.
type region struct {
	cfg   shard.Config
	trace serve.Trace
	// ref is the first plain pass's summary.
	ref *shard.Summary
}

func setupRegion(seed int64) (bench, error) {
	tr, err := shard.DemoRegionTrace(seed)
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{Control: shard.DemoRegionControl(), Shards: regionShards}
	if _, err := shard.New(cfg); err != nil {
		return nil, err
	}
	return &region{cfg: cfg, trace: tr}, nil
}

// inputs is 1: every pass replays the same input.
func (b *region) inputs() int { return 1 }

func (b *region) pass(_ int, pr *probe) (*passOut, error) {
	cfg := b.cfg
	var reg *obs.Registry
	if pr != nil {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	end := startOp()
	p, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	sum, err := p.Serve(b.trace)
	if err != nil {
		return nil, err
	}
	if pr != nil {
		pr.since("shard.serve", t)
		recordRegion(pr, sum, reg)
	}
	return &passOut{
		requests: len(b.trace),
		failed:   sum.Total.Rejected,
		rounds:   sum.Rounds,
		ops:      []op{end()},
		data:     sum,
	}, nil
}

// recordRegion adds one traced pass's plane, control, fleet and per-device
// counters to the probe.
func recordRegion(pr *probe, sum *shard.Summary, reg *obs.Registry) {
	pr.add("shard.rounds", float64(sum.Rounds))
	pr.add("shard.gossip_entries", reg.Get("shard.gossip_entries_tx")+reg.Get("shard.gossip_entries_rx"))
	pr.add("shard.warm_hits", reg.Get("shard.warm_hits"))
	pr.add("shard.assists", reg.Get("shard.solve_assists"))
	pr.add("shard.deferred", reg.Get("shard.deferred"))
	pr.add("shard.handoffs", reg.Get("shard.handoffs"))
	pr.add("fleet.peak_devices", float64(sum.PeakDevices))
	peak := 0.0
	for _, m := range reg.Snapshot() {
		// Per-shard counters are "shard<k>.<layer>.<...>"; the plane
		// totals are "shard.<name>".
		_, rest, ok := strings.Cut(m.Name, ".")
		if !ok || !strings.HasPrefix(m.Name, "shard") || strings.HasPrefix(m.Name, "shard.") {
			continue
		}
		leaf := rest[strings.LastIndexByte(rest, '.')+1:]
		switch {
		case rest == "control.scale_events":
			pr.add("control.scale_events", m.Value)
		case rest == "control.migrations":
			pr.add("control.migrations", m.Value)
		case strings.HasPrefix(rest, "serve."):
			switch leaf {
			case "prepare_calls":
				pr.add("profiler.prepare_calls", m.Value)
			case "completions", "rounds", "cache_hits", "cache_misses":
				pr.add("serve."+leaf, m.Value)
			case "forced_dispatches":
				pr.add("serve.forced", m.Value)
			case "queue_peak":
				peak = math.Max(peak, m.Value)
			}
		}
	}
	pr.add("serve.queue_peak", peak)
}

// check validates a pass's request accounting: every offered request ends
// completed or rejected, in total and per tenant. The digest is the whole
// summary.
func (b *region) check(out *passOut) int {
	sum := out.data.(*shard.Summary)
	failed := 0
	t := sum.Total
	if t.Offered != len(b.trace) {
		failed += abs(len(b.trace) - t.Offered)
	}
	if t.Completed+t.Rejected != t.Offered {
		failed += abs(t.Offered - t.Completed - t.Rejected)
	}
	offered := 0
	for _, ts := range sum.Tenants {
		offered += ts.Offered
	}
	if offered != t.Offered {
		failed += abs(offered - t.Offered)
	}
	js, err := json.Marshal(sum)
	if err != nil {
		failed++
	}
	d := newDigest()
	d.add(string(js))
	out.digest = d.sum()
	if b.ref == nil && out.kind == plainPass {
		b.ref = sum
	}
	return failed
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (b *region) finish() int { return 0 }

func (b *region) sim() map[string]float64 {
	return map[string]float64{
		"sim_p50_ms":   b.ref.Total.P50Ms,
		"sim_slo_pct":  b.ref.SLOAttainmentPct,
		"sim_device_s": b.ref.DeviceMs / 1000,
	}
}

func (b *region) layers(pr *probe, traced []*passOut, m map[string]float64) {
	passes := pr.sums["shard.serve.calls"]
	perPass := func(k string) float64 { return pr.sums[k] / passes }
	m["shard.new_ms"] = b.newMs()
	m["shard.round_us"] = 1000 * pr.mean("shard.serve", "shard.rounds")
	for _, k := range []string{"shard.rounds", "shard.gossip_entries", "shard.warm_hits", "shard.assists",
		"shard.deferred", "shard.handoffs", "control.scale_events", "control.migrations", "fleet.peak_devices",
		"profiler.prepare_calls", "serve.forced", "serve.queue_peak"} {
		m[k] = perPass(k)
	}
	m["serve.batch_size"] = pr.mean("serve.completions", "serve.rounds")
	if h := pr.sums["serve.cache_hits"]; h > 0 {
		m["serve.cache_hit_pct"] = 100 * h / (h + pr.sums["serve.cache_misses"])
	}
	m["sim.p99_ms"] = b.ref.Total.P99Ms
	m["serve.wait_ms_p50"], m["serve.wait_ms_p99"] = b.waits()
}

// newMs is the mean wall time of one shard.New, over newTimings calls.
func (b *region) newMs() float64 {
	t0 := time.Now()
	for i := 0; i < newTimings; i++ {
		if _, err := shard.New(b.cfg); err != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6 / newTimings
}

// waits serves one more pass with a plane tracer attached and returns the
// 50th and 99th percentile queue waits, read from the per-request audit
// events.
func (b *region) waits() (float64, float64) {
	cfg := b.cfg
	cfg.Tracer = obs.NewTracer()
	p, err := shard.New(cfg)
	if err != nil {
		return math.NaN(), math.NaN()
	}
	if _, err := p.Serve(b.trace); err != nil {
		return math.NaN(), math.NaN()
	}
	var waits []float64
	for _, e := range cfg.Tracer.Events() {
		if e.Kind == obs.KindAudit && e.Request != obs.NoRequest {
			if w, ok := e.Metrics["queue_wait_ms"]; ok {
				waits = append(waits, w)
			}
		}
	}
	sort.Float64s(waits)
	return quantile(waits, 0.50), quantile(waits, 0.99)
}
