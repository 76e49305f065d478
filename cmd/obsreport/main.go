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
// Examples:
//
//	serve -mode aware -trace-jsonl trace.jsonl && obsreport -jsonl trace.jsonl
//	control -mode serve -trace-jsonl t.jsonl -metrics-out m.jsonl
//	obsreport -jsonl t.jsonl -metrics m.jsonl -format json -out report.json
//	obsreport -jsonl t.jsonl -strict   # CI: every violation must classify
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

func main() {
	var (
		jsonlPath   = flag.String("jsonl", "", "trace JSONL input (written by -trace-jsonl; required)")
		metricsPath = flag.String("metrics", "", "metrics input (written by -metrics-out, JSONL or CSV); echoed into the report")
		format      = flag.String("format", "text", "output format: text, csv or json")
		outPath     = flag.String("out", "", "write the report here instead of stdout")
		utilWindow  = flag.Float64("utilwindow", 100, "utilization-timeline window in virtual ms")
		strict      = flag.Bool("strict", false, "exit non-zero when any violation classifies unknown or the trace is empty")
	)
	flag.Parse()
	if *jsonlPath == "" {
		fatalf("-jsonl is required (a trace written with -trace-jsonl)")
	}
	events, err := readEvents(*jsonlPath)
	if err != nil {
		fatalf("%v", err)
	}
	rep := Analyze(events, *utilWindow)
	if *metricsPath != "" {
		rep.Metrics, err = readMetrics(*metricsPath)
		if err != nil {
			fatalf("%v", err)
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		out = f
	}
	switch *format {
	case "text":
		err = writeText(out, rep)
	case "csv":
		err = writeCSV(out, rep)
	case "json":
		err = report.WriteJSON(out, rep)
	default:
		fatalf("unknown format %q (want text, csv or json)", *format)
	}
	if err != nil {
		fatalf("%v", err)
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

// readEvents parses a trace JSONL file.
func readEvents(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []obs.Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
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
	var out []obs.Metric
	if strings.HasSuffix(path, ".csv") {
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for i, row := range rows {
			if i == 0 || len(row) < 2 {
				continue // header
			}
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: row %d: %v", path, i, err)
			}
			out = append(out, obs.Metric{Name: row[0], Value: v})
		}
		return out, nil
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m obs.Metric
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, m)
	}
	return out, sc.Err()
}

// reqKey joins per-request events across kinds: audit, force and violate
// events of one request share the device (trace-leg) and request ID.
type reqKey struct {
	device  string
	request int
}

// Analyze runs the full pass: joins, classification, re-aggregation and
// timelines. Deterministic for a given event stream.
func Analyze(events []obs.Event, utilWindowMs float64) *Report {
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

	rep.Utilization = utilization(events, utilWindowMs)
	return rep
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
// crossing a boundary split proportionally.
func utilization(events []obs.Event, windowMs float64) []UtilRow {
	if windowMs <= 0 {
		return nil
	}
	busy := map[string]map[int]float64{} // device -> window index -> busy ms
	maxWin := map[string]int{}
	for _, e := range events {
		if e.Kind != obs.KindDispatch || e.DurMs <= 0 {
			continue
		}
		dev := busy[e.Device]
		if dev == nil {
			dev = map[int]float64{}
			busy[e.Device] = dev
		}
		for t := e.AtMs; t < e.AtMs+e.DurMs; {
			w := int(t / windowMs)
			edge := float64(w+1) * windowMs
			end := math.Min(edge, e.AtMs+e.DurMs)
			dev[w] += end - t
			if w > maxWin[e.Device] {
				maxWin[e.Device] = w
			}
			t = end
		}
	}
	var rows []UtilRow
	for _, name := range sortedKeys(busy) {
		for w := 0; w <= maxWin[name]; w++ {
			rows = append(rows, UtilRow{
				Device:  name,
				StartMs: float64(w) * windowMs,
				BusyMs:  busy[name][w],
				UtilPct: 100 * busy[name][w] / windowMs,
			})
		}
	}
	return rows
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
