// Command obsreport is the offline forensics analyzer of the serving
// stack's observability artifacts: it ingests a trace written with
// -trace-jsonl (and optionally a metrics file written with -metrics-out)
// and reconstructs what the run's decisions cost — without re-running
// anything.
//
// Three analyses come out of one pass over the events:
//
//   - Violation root-cause attribution: every "violate" event is joined
//     with its request's "audit" event (the model's predicted latency,
//     the ground-truth actual, the queue wait and the SLO), any "force"
//     event, and the control plane's scale-lag windows, and classified as
//     rejected-late (the prediction already exceeded the SLO at dispatch
//     — admission should have turned it away), queue-wait (the wait, not
//     the model, pushed it over), forced-dispatch (the starvation bound
//     overrode the mix policy), mispredicted-contention (the model said
//     it would fit and the execution disagreed) or scale-lag (dispatched
//     while the autoscaler was still reacting to a watermark trip).
//     Violations with no audit event classify as unknown; -strict makes
//     any unknown (or an empty trace) a non-zero exit.
//
//   - Prediction-error tables: the audit events' (predicted, actual)
//     pairs are re-aggregated into the same per-mix/tenant/network/device
//     calibration table obs.Audit computes online, so the table is
//     available from the trace alone.
//
//   - Timelines: per-device utilization over fixed windows (from
//     dispatch spans) and the control plane's reaction-lag windows.
//
// Traces from a sharded plane (control -shards K > 1) additionally get a
// shard section: per-shard gossip-round totals (exported/imported cache
// entries, assist solves performed for other shards, peak barrier
// backlog) from "gossip" events and the tenant handoff log from
// "handoff" events, plus any shard.* counters from the metrics file.
//
// It is also the artifact gate of CI's observability job. -require names
// event kinds, or a layer's preset of them, that must each have at least
// one event in the JSONL trace and in the Chrome trace given by -chrome,
// so a refactor that silently drops an event kind fails the build; under
// -require the -metrics file must hold at least one metric. Ingest
// rejects an event with no kind and a metric with no name.
//
// Examples:
//
//	serve -mode aware -trace-jsonl trace.jsonl && obsreport -jsonl trace.jsonl
//	control -mode serve -trace-jsonl t.jsonl -metrics-out m.jsonl
//	obsreport -jsonl t.jsonl -metrics m.jsonl -format json -out report.json
//	obsreport -jsonl t.jsonl -strict   # CI: every violation must classify
//	serve -mode compare -trace t.json -trace-jsonl t.jsonl -metrics-out m.jsonl
//	obsreport -chrome t.json -jsonl t.jsonl -metrics m.jsonl -require serve
package main

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"haxconn/internal/cliutil"
	"haxconn/internal/obs"
	"haxconn/internal/report"
)

// Violation classes, from the attribution rules in classify.
const (
	ClassRejectedLate = "rejected-late"
	ClassQueueWait    = "queue-wait"
	ClassForced       = "forced-dispatch"
	ClassMispredicted = "mispredicted-contention"
	ClassScaleLag     = "scale-lag"
	ClassUnknown      = "unknown"
)

// Classes lists every class in report order.
var Classes = []string{ClassMispredicted, ClassQueueWait, ClassRejectedLate,
	ClassForced, ClassScaleLag, ClassUnknown}

// ViolationRow is one classified SLO violation.
type ViolationRow struct {
	AtMs    float64 `json:"at_ms"`
	Device  string  `json:"device,omitempty"`
	Tenant  string  `json:"tenant,omitempty"`
	Network string  `json:"network,omitempty"`
	Request int     `json:"request"`
	// OverMs is the violate event's value: latency minus SLO.
	OverMs float64 `json:"over_ms"`
	Class  string  `json:"class"`
	// The joined audit numbers (zero when Class is unknown).
	PredictedLatMs float64 `json:"predicted_lat_ms,omitempty"`
	ActualLatMs    float64 `json:"actual_lat_ms,omitempty"`
	QueueWaitMs    float64 `json:"queue_wait_ms,omitempty"`
	SLOMs          float64 `json:"slo_ms,omitempty"`
}

// ScaleWindow is one control-plane pressure window: watermark trip to
// backlog cleared. ClearMs and LagTicks are -1 for a window still open at
// end of run.
type ScaleWindow struct {
	TripMs   float64 `json:"trip_ms"`
	ClearMs  float64 `json:"clear_ms"`
	LagTicks int     `json:"lag_ticks"`
}

// ShardGossipRow aggregates one shard's barrier-round gossip activity
// from its "gossip" events.
type ShardGossipRow struct {
	Shard     int     `json:"shard"`
	Rounds    int     `json:"rounds"`
	TxEntries int     `json:"tx_entries"`
	RxEntries int     `json:"rx_entries"`
	Assists   int     `json:"assists"`
	PeakBklMs float64 `json:"peak_backlog_ms"`
}

// HandoffRow is one cross-shard tenant handoff from a "handoff" event.
type HandoffRow struct {
	AtMs      float64 `json:"at_ms"`
	Tenant    string  `json:"tenant"`
	From      int     `json:"from"`
	To        int     `json:"to"`
	Moved     int     `json:"moved"`
	BacklogMs float64 `json:"backlog_ms"`
}

// UtilRow is one device's busy time within one fixed window.
type UtilRow struct {
	Device  string  `json:"device"`
	StartMs float64 `json:"start_ms"`
	BusyMs  float64 `json:"busy_ms"`
	UtilPct float64 `json:"util_pct"`
}

// Report is the full analysis, the JSON output format.
type Report struct {
	Events       int              `json:"events"`
	Violations   int              `json:"violations"`
	Classes      map[string]int   `json:"classes"`
	Rows         []ViolationRow   `json:"violation_rows"`
	Calibration  []obs.AuditStat  `json:"calibration"`
	Shards       []ShardGossipRow `json:"shards,omitempty"`
	Handoffs     []HandoffRow     `json:"handoffs,omitempty"`
	ScaleWindows []ScaleWindow    `json:"scale_windows,omitempty"`
	Utilization  []UtilRow        `json:"utilization,omitempty"`
	Metrics      []obs.Metric     `json:"metrics,omitempty"`
}

// defaultStages is the request lifecycle the two-tenant compare demo is
// guaranteed to exercise: arrivals through admission, mix forming and
// scoring, cache hits/misses/probes, dispatch, completion and at least
// one SLO violation.
const defaultStages = "arrive,admit,mix-form,mix-score,cache-hit,cache-miss,cache-probe,dispatch,complete,violate"

// presets maps each layer's canonical demo to the stages it must emit:
// serve is the lifecycle above plus the predicted-vs-actual audit pairs;
// fleet (mix-aware placement, contention-aware mixes) adds placement;
// control (burst demo) adds scale decisions and pool snapshots; shard
// (a K=4 plane with a hot tenant and no growth headroom, e.g.
// control -mode serve -shards 4 -devices Orin:4 -max 4 -handoff-backlog 10
// with one tenant's rate boosted) adds the gossip barrier rounds and the
// cross-shard tenant handoff.
var presets = map[string]string{
	"serve":   defaultStages + ",audit",
	"fleet":   "arrive,admit,place,mix-form,mix-score,cache-hit,dispatch,complete,violate,audit",
	"control": "arrive,admit,place,scale,pool,mix-form,cache-hit,dispatch,complete,violate,audit",
	"shard":   "arrive,admit,place,pool,mix-form,cache-hit,cache-miss,dispatch,complete,violate,audit,gossip,handoff",
}

// maxUtilWindows bounds the utilization timeline: the windows it holds
// over all devices, counting those a span reaches before time 0. A span
// too long for its window size, or far from time 0, fails the analysis
// instead of exhausting memory.
const maxUtilWindows = 1 << 20

func main() {
	var (
		jsonlPath   = flag.String("jsonl", "", "trace JSONL input (written by -trace-jsonl; required)")
		metricsPath = flag.String("metrics", "", "metrics input (written by -metrics-out, JSONL or CSV); echoed into the report")
		chromePath  = flag.String("chrome", "", "Chrome trace-event JSON (written by -trace) whose events are counted by kind against -require")
		require     = flag.String("require", "", "comma-separated event kinds, or the presets serve, fleet, control and shard, that must each have an event in every trace; -metrics must then hold a metric")
		format      = flag.String("format", "text", "output format: text, csv or json")
		outPath     = flag.String("out", "", "write the report here instead of stdout")
		utilWindow  = flag.Float64("utilwindow", 100, fmt.Sprintf("utilization-timeline window in virtual ms; the timeline holds at most %d windows over all devices, counting those before time 0", maxUtilWindows))
		strict      = flag.Bool("strict", false, "exit non-zero when any violation classifies unknown or the trace is empty")
	)
	flag.Parse()
	if *jsonlPath == "" {
		fatalf("-jsonl is required (a trace written with -trace-jsonl)")
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fatalf("unknown format %q (want text, csv or json)", *format)
	}
	events, err := readEvents(*jsonlPath)
	if err != nil {
		fatalf("%v", err)
	}
	var chromeCounts map[string]int
	if *chromePath != "" {
		if chromeCounts, err = readChromeCounts(*chromePath); err != nil {
			fatalf("%v", err)
		}
	}
	rep, err := Analyze(events, *utilWindow)
	if err != nil {
		fatalf("%v", err)
	}
	if *metricsPath != "" {
		rep.Metrics, err = readMetrics(*metricsPath)
		if err != nil {
			fatalf("%v", err)
		}
	}

	if *outPath == "" {
		err = writeReport(os.Stdout, *format, rep)
	} else {
		err = cliutil.WriteFile(*outPath, func(w io.Writer) error { return writeReport(w, *format, rep) })
	}
	if err != nil {
		fatalf("%v", err)
	}
	if required := requiredKinds(*require); len(required) > 0 {
		if err := checkKinds(countKinds(events), required); err != nil {
			fatalf("%s: %v", *jsonlPath, err)
		}
		if chromeCounts != nil {
			if err := checkKinds(chromeCounts, required); err != nil {
				fatalf("%s: %v", *chromePath, err)
			}
		}
		if *metricsPath != "" && len(rep.Metrics) == 0 {
			fatalf("%s: no metrics", *metricsPath)
		}
	}
	if *strict {
		if rep.Events == 0 {
			fatalf("strict: trace has no events")
		}
		if n := rep.Classes[ClassUnknown]; n > 0 {
			fatalf("strict: %d of %d violations classified unknown", n, rep.Violations)
		}
	}
}

// writeReport renders rep to w in the named format.
func writeReport(w io.Writer, format string, rep *Report) error {
	switch format {
	case "csv":
		return writeCSV(w, rep)
	case "json":
		return report.WriteJSON(w, rep)
	}
	return writeText(w, rep)
}

// readEvents parses a trace JSONL file.
func readEvents(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := parseEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return events, nil
}

// parseEvents parses trace JSONL, one event per line; blank lines are
// skipped, and an event with no kind is an error naming its line.
func parseEvents(r io.Reader) ([]obs.Event, error) {
	var events []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("line %d: event has no kind", n)
		}
		events = append(events, e)
	}
	return events, sc.Err()
}

// readMetrics parses a metrics artifact: name,value CSV (with header) or
// the registry's JSONL.
func readMetrics(path string) ([]obs.Metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	metrics, err := parseMetrics(f, strings.HasSuffix(path, ".csv"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return metrics, nil
}

// parseMetrics parses name,value CSV (isCSV) or the registry's JSONL. A
// metric with no name is an error naming its row or line.
func parseMetrics(r io.Reader, isCSV bool) ([]obs.Metric, error) {
	var out []obs.Metric
	if isCSV {
		rows, err := csv.NewReader(r).ReadAll()
		if err != nil {
			return nil, err
		}
		for i, row := range rows {
			if i == 0 || len(row) < 2 {
				continue // header
			}
			if row[0] == "" {
				return nil, fmt.Errorf("row %d: metric has no name", i)
			}
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				return nil, fmt.Errorf("row %d: %v", i, err)
			}
			if !finite(v) {
				// JSONL cannot spell one; the JSON report could not encode it.
				return nil, fmt.Errorf("row %d: metric %q value %v is not finite", i, row[0], v)
			}
			out = append(out, obs.Metric{Name: row[0], Value: v})
		}
		return out, nil
	}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m obs.Metric
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		if m.Name == "" {
			return nil, fmt.Errorf("line %d: metric has no name", n)
		}
		out = append(out, m)
	}
	return out, sc.Err()
}

// readChromeCounts parses a Chrome trace-event file and counts its events
// by name, skipping "M" metadata records. The tracer names each event by
// its kind, so the counts compare with a JSONL trace's.
func readChromeCounts(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: not valid Chrome trace JSON: %v", path, err)
	}
	counts := map[string]int{}
	for _, e := range t.TraceEvents {
		if e.Phase != "M" {
			counts[e.Name]++
		}
	}
	return counts, nil
}

// requiredKinds expands a -require list: a preset name stands for its
// layer's kinds, any other entry is a kind.
func requiredKinds(spec string) []string {
	var kinds []string
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if p, ok := presets[name]; ok {
			kinds = append(kinds, strings.Split(p, ",")...)
		} else if name != "" {
			kinds = append(kinds, name)
		}
	}
	return kinds
}

// countKinds tallies events per kind.
func countKinds(events []obs.Event) map[string]int {
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	return counts
}

// checkKinds fails unless every required kind has at least one event,
// naming the missing kinds and the counts it found.
func checkKinds(counts map[string]int, required []string) error {
	var missing []string
	for _, kind := range required {
		if counts[kind] == 0 {
			missing = append(missing, kind)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	found := make([]string, 0, len(counts))
	for _, kind := range sortedKeys(counts) {
		found = append(found, fmt.Sprintf("%s=%d", kind, counts[kind]))
	}
	return fmt.Errorf("no events of kind(s) %s (found %s)",
		strings.Join(missing, ", "), strings.Join(found, " "))
}

// reqKey joins per-request events across kinds: audit, force and violate
// events of one request share the device (trace-leg) and request ID.
type reqKey struct {
	device  string
	request int
}

// Analyze runs the full pass: joins, classification, re-aggregation and
// timelines. Deterministic for a given event stream. It fails when the
// utilization window is not finite, the timeline would exceed
// maxUtilWindows, or a calibration aggregate or utilization window sums
// past the float64 range: every report it returns renders in each format.
func Analyze(events []obs.Event, utilWindowMs float64) (*Report, error) {
	rep := &Report{Events: len(events), Classes: map[string]int{}}

	// Pass 1: index the joinable facts.
	audits := map[reqKey]obs.Event{}
	forced := map[reqKey]bool{}
	audit := obs.NewAudit()
	shards := map[int]*ShardGossipRow{}
	var windows []ScaleWindow
	for _, e := range events {
		switch e.Kind {
		case obs.KindAudit:
			switch {
			case e.Detail == "scale-lag":
				windows = append(windows, ScaleWindow{
					TripMs:   e.Metrics["trip_ms"],
					ClearMs:  e.Metrics["clear_ms"],
					LagTicks: int(e.Metrics["lag_ticks"]),
				})
			case e.Detail == "place-fit":
				audit.Observe("fleet", "device", e.Device,
					e.Metrics["predicted_ms"], e.Metrics["actual_ms"])
			case e.Request == obs.NoRequest:
				// Round-level pair: the mix's predicted vs. actual makespan.
				audit.Observe("serve", "mix", e.Detail,
					e.Metrics["predicted_ms"], e.Metrics["actual_ms"])
			default:
				audits[reqKey{e.Device, e.Request}] = e
				audit.Observe("serve", "tenant", e.Tenant,
					e.Metrics["predicted_lat_ms"], e.Metrics["actual_lat_ms"])
				audit.Observe("serve", "network", e.Network,
					e.Metrics["predicted_lat_ms"], e.Metrics["actual_lat_ms"])
			}
		case obs.KindForce:
			forced[reqKey{e.Device, e.Request}] = true
		case obs.KindGossip:
			idx := int(e.Metrics["shard"])
			row := shards[idx]
			if row == nil {
				row = &ShardGossipRow{Shard: idx}
				shards[idx] = row
			}
			row.Rounds++
			row.TxEntries += int(e.Metrics["tx_entries"])
			row.RxEntries += int(e.Metrics["rx_entries"])
			row.Assists += int(e.Metrics["assists"])
			if e.Metrics["backlog_ms"] > row.PeakBklMs {
				row.PeakBklMs = e.Metrics["backlog_ms"]
			}
		case obs.KindHandoff:
			rep.Handoffs = append(rep.Handoffs, HandoffRow{
				AtMs: e.AtMs, Tenant: e.Tenant,
				From:  int(e.Metrics["from"]),
				To:    int(e.Metrics["to"]),
				Moved: int(e.Metrics["moved"]), BacklogMs: e.Value,
			})
		}
	}
	shardIdx := make([]int, 0, len(shards))
	for idx := range shards {
		shardIdx = append(shardIdx, idx)
	}
	sort.Ints(shardIdx)
	for _, idx := range shardIdx {
		rep.Shards = append(rep.Shards, *shards[idx])
	}
	rep.Calibration = audit.Snapshot()
	for _, c := range rep.Calibration {
		if !finite(c.MeanPredictedMs, c.MeanActualMs, c.BiasMs, c.MAPEPct) {
			return nil, fmt.Errorf("calibration aggregate (%s, %s, %s) is not finite: mean predicted %g ms, mean actual %g ms, bias %g ms, MAPE %g%%",
				c.Layer, c.Scope, c.Key, c.MeanPredictedMs, c.MeanActualMs, c.BiasMs, c.MAPEPct)
		}
	}
	rep.ScaleWindows = windows

	// Pass 2: classify every violation.
	for _, e := range events {
		if e.Kind != obs.KindViolate {
			continue
		}
		rep.Violations++
		row := ViolationRow{AtMs: e.AtMs, Device: e.Device, Tenant: e.Tenant,
			Network: e.Network, Request: e.Request, OverMs: e.Value}
		k := reqKey{e.Device, e.Request}
		if a, ok := audits[k]; ok {
			row.PredictedLatMs = a.Metrics["predicted_lat_ms"]
			row.ActualLatMs = a.Metrics["actual_lat_ms"]
			row.QueueWaitMs = a.Metrics["queue_wait_ms"]
			row.SLOMs = a.Metrics["slo_ms"]
			row.Class = classify(a, forced[k], windows)
		} else {
			row.Class = ClassUnknown
		}
		rep.Classes[row.Class]++
		rep.Rows = append(rep.Rows, row)
	}

	var err error
	if rep.Utilization, err = utilization(events, utilWindowMs); err != nil {
		return nil, err
	}
	return rep, nil
}

// classify attributes one violated request's miss, given its audit event
// a (AtMs is the dispatch-round start). The rules are exhaustive: a
// violation means actual > SLO, so when the prediction was under the SLO
// the model is wrong (mispredicted-contention); when the prediction was
// already over, either the queue wait explains the overage (queue-wait)
// or the request was doomed at dispatch and admission let it through
// anyway (rejected-late). A starvation-forced dispatch and a dispatch
// inside a scale-pressure window take precedence: those name the decision
// that put the request in that round at all.
func classify(a obs.Event, wasForced bool, windows []ScaleWindow) string {
	if wasForced {
		return ClassForced
	}
	for _, w := range windows {
		clear := w.ClearMs
		if clear < 0 {
			clear = math.Inf(1) // window never resolved: open to end of run
		}
		if a.AtMs >= w.TripMs && a.AtMs < clear {
			return ClassScaleLag
		}
	}
	pred := a.Metrics["predicted_lat_ms"]
	slo := a.Metrics["slo_ms"]
	wait := a.Metrics["queue_wait_ms"]
	switch {
	case pred <= slo:
		return ClassMispredicted
	case pred-wait <= slo:
		return ClassQueueWait
	default:
		return ClassRejectedLate
	}
}

// utilization folds dispatch spans into per-device fixed windows; spans
// crossing a boundary split proportionally. A non-positive window turns
// the timeline off. Before walking a span it counts the windows the
// device's timeline then spans, from its earliest window (or 0) to its
// latest, and fails once all devices together exceed maxUtilWindows.
func utilization(events []obs.Event, windowMs float64) ([]UtilRow, error) {
	if math.IsNaN(windowMs) || math.IsInf(windowMs, 0) {
		return nil, fmt.Errorf("utilization window %v ms is not finite", windowMs)
	}
	if windowMs <= 0 {
		return nil, nil
	}
	type timeline struct {
		busy   []float64 // busy ms per window from time 0
		lo, hi float64   // earliest (<= 0) and latest window reached
	}
	devices := map[string]*timeline{}
	total := 0.0 // windows held over all devices
	for _, e := range events {
		if e.Kind != obs.KindDispatch || e.DurMs <= 0 {
			continue
		}
		tl := devices[e.Device]
		if tl == nil {
			tl = &timeline{busy: make([]float64, 1)}
			devices[e.Device] = tl
			total++
		}
		end := e.AtMs + e.DurMs
		first := math.Floor(e.AtMs / windowMs)
		last := math.Max(first, math.Ceil(end/windowMs)-1)
		lo, hi := math.Min(tl.lo, first), math.Max(tl.hi, last)
		grown := total + (hi - lo) - (tl.hi - tl.lo)
		if !(grown <= maxUtilWindows) {
			return nil, fmt.Errorf("utilization timeline: dispatch at %g ms for %g ms on %q needs more than %d windows of %g ms",
				e.AtMs, e.DurMs, e.Device, maxUtilWindows, windowMs)
		}
		tl.lo, tl.hi, total = lo, hi, grown
		// Walk the counted windows by index, the last one ending the span,
		// so rounding in t/windowMs can neither stall the walk nor leave
		// the counted windows.
		for w, t := int(first), e.AtMs; w <= int(last); w++ {
			edge := end
			if w < int(last) {
				edge = math.Min(float64(w+1)*windowMs, end)
			}
			if edge <= t {
				continue
			}
			if w >= 0 {
				for len(tl.busy) <= w {
					tl.busy = append(tl.busy, 0)
				}
				tl.busy[w] += edge - t
			}
			t = edge
		}
	}
	var rows []UtilRow
	for _, name := range sortedKeys(devices) {
		for w, busy := range devices[name].busy {
			row := UtilRow{
				Device:  name,
				StartMs: float64(w) * windowMs,
				BusyMs:  busy,
				UtilPct: 100 * busy / windowMs,
			}
			if !finite(row.StartMs, row.BusyMs, row.UtilPct) {
				return nil, fmt.Errorf("utilization of %q in window %d of %g ms is not finite: busy %g ms, %g%%",
					name, w, windowMs, row.BusyMs, row.UtilPct)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeText renders the human-readable report.
func writeText(w io.Writer, rep *Report) error {
	fmt.Fprintf(w, "== obsreport: %d events ==\n\n", rep.Events)

	fmt.Fprintf(w, "violations: %d\n", rep.Violations)
	for _, c := range Classes {
		if n := rep.Classes[c]; n > 0 {
			fmt.Fprintf(w, "  %-24s %d\n", c, n)
		}
	}
	if len(rep.Rows) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "at ms\tdevice\ttenant\treq\tover ms\tpredicted\tactual\twait\tslo\tclass")
		for _, r := range rep.Rows {
			fmt.Fprintf(tw, "%.1f\t%s\t%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%s\n",
				r.AtMs, r.Device, r.Tenant, r.Request, r.OverMs,
				r.PredictedLatMs, r.ActualLatMs, r.QueueWaitMs, r.SLOMs, r.Class)
		}
		tw.Flush()
	}
	fmt.Fprintln(w)

	if len(rep.Calibration) > 0 {
		fmt.Fprintln(w, "prediction calibration (predicted/actual ratio buckets):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "layer\tscope\tkey\tcount\tbias ms\tmape %%")
		for _, l := range obs.CalibrationLabels {
			fmt.Fprintf(tw, "\t%s", l)
		}
		fmt.Fprintln(tw)
		for _, s := range rep.Calibration {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%+.3f\t%.1f", s.Layer, s.Scope, s.Key, s.Count, s.BiasMs, s.MAPEPct)
			for _, b := range s.Buckets {
				fmt.Fprintf(tw, "\t%d", b)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}

	if len(rep.Shards) > 0 {
		fmt.Fprintln(w, "shard gossip (per-shard barrier-round totals):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "shard\trounds\ttx entries\trx entries\tassists\tpeak backlog ms")
		for _, s := range rep.Shards {
			fmt.Fprintf(tw, "s%d\t%d\t%d\t%d\t%d\t%.1f\n",
				s.Shard, s.Rounds, s.TxEntries, s.RxEntries, s.Assists, s.PeakBklMs)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}

	if len(rep.Handoffs) > 0 {
		fmt.Fprintln(w, "tenant handoffs:")
		for _, h := range rep.Handoffs {
			fmt.Fprintf(w, "  %8.1f ms  %-12s s%d -> s%d (%d arrivals, backlog %.1f ms)\n",
				h.AtMs, h.Tenant, h.From, h.To, h.Moved, h.BacklogMs)
		}
		fmt.Fprintln(w)
	}

	if len(rep.ScaleWindows) > 0 {
		fmt.Fprintln(w, "scale-pressure windows (watermark trip -> backlog cleared):")
		for _, sw := range rep.ScaleWindows {
			if sw.LagTicks < 0 {
				fmt.Fprintf(w, "  %8.1f ms -> (unresolved at end of run)\n", sw.TripMs)
				continue
			}
			fmt.Fprintf(w, "  %8.1f ms -> %8.1f ms  (%d ticks)\n", sw.TripMs, sw.ClearMs, sw.LagTicks)
		}
		fmt.Fprintln(w)
	}

	if len(rep.Utilization) > 0 {
		fmt.Fprintln(w, "device utilization timeline:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "device\twindow start ms\tbusy ms\tutil %")
		for _, u := range rep.Utilization {
			fmt.Fprintf(tw, "%s\t%.0f\t%.2f\t%.1f\n", u.Device, u.StartMs, u.BusyMs, u.UtilPct)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}

	var interesting []obs.Metric
	for _, m := range rep.Metrics {
		if strings.HasPrefix(m.Name, "audit.") || strings.HasPrefix(m.Name, "control.") ||
			strings.HasPrefix(m.Name, "shard.") {
			interesting = append(interesting, m)
		}
	}
	if len(interesting) > 0 {
		fmt.Fprintln(w, "metrics (audit/control/shard):")
		for _, m := range interesting {
			fmt.Fprintf(w, "  %-48s %.4f\n", m.Name, m.Value)
		}
	}
	return nil
}

// writeCSV renders every section as one flat table with a leading
// "table" discriminator column, so one file stays spreadsheet-loadable.
func writeCSV(w io.Writer, rep *Report) error {
	cw := csv.NewWriter(w)
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	i := strconv.Itoa
	rows := [][]string{{"table", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10"}}
	pad := func(row []string) []string {
		for len(row) < len(rows[0]) {
			row = append(row, "")
		}
		return row
	}
	for _, c := range Classes {
		rows = append(rows, pad([]string{"class", c, i(rep.Classes[c])}))
	}
	for _, r := range rep.Rows {
		rows = append(rows, pad([]string{"violation", f(r.AtMs), r.Device, r.Tenant,
			i(r.Request), f(r.OverMs), f(r.PredictedLatMs), f(r.ActualLatMs),
			f(r.QueueWaitMs), f(r.SLOMs), r.Class}))
	}
	for _, s := range rep.Calibration {
		rows = append(rows, pad([]string{"calibration", s.Layer, s.Scope, s.Key,
			i(s.Count), f(s.BiasMs), f(s.MAPEPct),
			i(s.Buckets[0]), i(s.Buckets[1]), i(s.Buckets[2]),
			i(s.Buckets[3]) + "+" + i(s.Buckets[4])}))
	}
	for _, s := range rep.Shards {
		rows = append(rows, pad([]string{"shard-gossip", i(s.Shard), i(s.Rounds),
			i(s.TxEntries), i(s.RxEntries), i(s.Assists), f(s.PeakBklMs)}))
	}
	for _, h := range rep.Handoffs {
		rows = append(rows, pad([]string{"handoff", f(h.AtMs), h.Tenant,
			i(h.From), i(h.To), i(h.Moved), f(h.BacklogMs)}))
	}
	for _, sw := range rep.ScaleWindows {
		rows = append(rows, pad([]string{"scale-window", f(sw.TripMs), f(sw.ClearMs), i(sw.LagTicks)}))
	}
	for _, u := range rep.Utilization {
		rows = append(rows, pad([]string{"utilization", u.Device, f(u.StartMs), f(u.BusyMs), f(u.UtilPct)}))
	}
	for _, m := range rep.Metrics {
		rows = append(rows, pad([]string{"metric", m.Name, f(m.Value)}))
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fatalf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !strings.HasPrefix(msg, "obsreport: ") {
		msg = "obsreport: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
