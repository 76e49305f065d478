// Package report serializes experiment artifacts as CSV and JSON so
// downstream tooling (spreadsheets, plotting scripts) can consume the
// regenerated tables and figures without parsing the human-readable text.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"haxconn/internal/control"
	"haxconn/internal/experiments"
	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/profiler"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
)

// WriteJSON serializes any artifact value as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// csvWriter wraps csv.Writer with float formatting helpers.
type csvWriter struct {
	w *csv.Writer
}

func newCSV(w io.Writer) *csvWriter { return &csvWriter{w: csv.NewWriter(w)} }

func (c *csvWriter) row(fields ...any) error {
	out := make([]string, len(fields))
	for i, f := range fields {
		switch v := f.(type) {
		case string:
			out[i] = v
		case int:
			out[i] = strconv.Itoa(v)
		case float64:
			out[i] = strconv.FormatFloat(v, 'f', 4, 64)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	return c.w.Write(out)
}

func (c *csvWriter) flush() error {
	c.w.Flush()
	return c.w.Error()
}

// Table6CSV writes the ten-experiment comparison.
func Table6CSV(w io.Writer, rows []*experiments.T6Row) error {
	c := newCSV(w)
	if err := c.row("exp", "platform", "goal", "networks", "best_baseline",
		"baseline_ms", "baseline_fps", "hax_ms", "hax_fps",
		"impr_lat_pct", "impr_fps_pct", "paper_lat_pct", "paper_fps_pct", "schedule"); err != nil {
		return err
	}
	for _, r := range rows {
		base := r.Baselines[r.BestBaseline]
		nets := ""
		for i, n := range r.Def.Networks {
			if i > 0 {
				nets += "+"
			}
			nets += n
		}
		if err := c.row(r.Def.Exp, r.Def.Platform, r.Def.Goal.String(), nets, r.BestBaseline,
			base.LatencyMs, base.FPS, r.HaX.LatencyMs, r.HaX.FPS,
			100*r.ImprLat, 100*r.ImprFPS,
			100*r.Def.PaperImprLat, 100*r.Def.PaperImprFPS, r.Schedule); err != nil {
			return err
		}
	}
	return c.flush()
}

// Table2CSV writes the layer-group characterization.
func Table2CSV(w io.Writer, rows []profiler.Table2Row) error {
	c := newCSV(w)
	if err := c.row("group", "gpu_ms", "dla_ms", "dg_ratio", "gtod_ms", "dtog_ms", "mem_thr_pct"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := c.row(r.Label, r.GPUMs, r.DLAMs, r.Ratio, r.GtoDMs, r.DtoGMs, r.MemThroughPc); err != nil {
			return err
		}
	}
	return c.flush()
}

// Table5CSV writes the standalone-runtime table.
func Table5CSV(w io.Writer, rows []experiments.T5Row) error {
	c := newCSV(w)
	if err := c.row("network", "orin_gpu_ms", "orin_dla_ms", "xavier_gpu_ms", "xavier_dla_ms",
		"paper_orin_gpu", "paper_orin_dla", "paper_xavier_gpu", "paper_xavier_dla"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := c.row(r.Network, r.OrinGPUMs, r.OrinDLAMs, r.XavierGPUMs, r.XavierDLAMs,
			r.PaperOrinGPU, r.PaperOrinDLA, r.PaperXavierGPU, r.PaperXavierDLA); err != nil {
			return err
		}
	}
	return c.flush()
}

// Table8CSV writes the pairwise matrix.
func Table8CSV(w io.Writer, cells []experiments.T8Cell) error {
	c := newCSV(w)
	if err := c.row("net1", "net2", "best_baseline", "fps_ratio", "iter1", "iter2", "schedule"); err != nil {
		return err
	}
	for _, cell := range cells {
		if err := c.row(cell.Net1, cell.Net2, cell.BestBaseline, cell.Ratio, cell.Iter1, cell.Iter2, cell.Schedule); err != nil {
			return err
		}
	}
	return c.flush()
}

// Fig5CSV writes the Scenario 1 throughput rows.
func Fig5CSV(w io.Writer, rows []experiments.Fig5Row) error {
	c := newCSV(w)
	if err := c.row("network", "gpu_only_fps", "naive_fps", "mensa_fps", "hax_fps", "impr_pct"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := c.row(r.Network, r.GPUOnly, r.NaiveFPS, r.MensaFPS, r.HaXFPS, r.ImprPct); err != nil {
			return err
		}
	}
	return c.flush()
}

// ServingCSV writes a serving summary: one row per tenant plus a TOTAL
// row, with latency percentiles, SLO accounting and throughput.
func ServingCSV(w io.Writer, sum *serve.Summary) error {
	c := newCSV(w)
	if err := c.row("policy", "tenant", "network", "offered", "rejected",
		"completed", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms",
		"violations", "violation_rate", "throughput_rps", "mix_policy"); err != nil {
		return err
	}
	rows := append(append([]serve.TenantStats(nil), sum.Tenants...), sum.Total)
	for _, ts := range rows {
		if err := c.row(sum.Policy, ts.Tenant, ts.Network, ts.Offered, ts.Rejected,
			ts.Completed, ts.MeanMs, ts.P50Ms, ts.P95Ms, ts.P99Ms, ts.MaxMs,
			ts.Violations, ts.ViolationRate, ts.ThroughputRPS, sum.MixPolicy); err != nil {
			return err
		}
	}
	return c.flush()
}

// ComparisonCSV writes a comparison (serve.Compare): one row per leg
// with its total figures, device-time and peak pool, then the leg
// against the baseline (the first row).
func ComparisonCSV(w io.Writer, rows []serve.Row) error {
	c := newCSV(w)
	if err := c.row("leg", "pool", "mix_policy", "offered", "rejected", "completed",
		"mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms", "violations",
		"throughput_rps", "slo_attainment_pct", "device_ms", "peak_devices",
		"p99_impr_pct", "violations_avoided", "throughput_impr_pct",
		"device_ms_saved_pct"); err != nil {
		return err
	}
	for _, r := range rows {
		t := r.Total
		if err := c.row(r.Leg, r.Pool, r.MixPolicy, t.Offered, t.Rejected, t.Completed,
			t.MeanMs, t.P50Ms, t.P95Ms, t.P99Ms, t.MaxMs, t.Violations,
			t.ThroughputRPS, r.SLOAttainmentPct, r.DeviceMs, r.PeakDevices,
			r.P99ImprPct, r.ViolationsAvoided, r.ThroughputImprPct,
			r.DeviceMsSavedPct); err != nil {
			return err
		}
	}
	return c.flush()
}

// FleetCSV writes a fleet serving summary: one row per device plus a
// fleet-wide TOTAL row, with placement share, latency percentiles, SLO
// accounting, throughput and per-device cache effectiveness.
func FleetCSV(w io.Writer, sum *fleet.Summary) error {
	c := newCSV(w)
	if err := c.row("placement", "pool", "device", "platform", "placed",
		"offered", "rejected", "completed", "mean_ms", "p50_ms", "p95_ms",
		"p99_ms", "max_ms", "violations", "violation_rate", "throughput_rps",
		"cache_hits", "cache_misses", "cache_upgrades", "slo_attainment_pct",
		"mix_policy"); err != nil {
		return err
	}
	for _, ds := range sum.Devices {
		ts := ds.Summary.Total
		if err := c.row(sum.Placement, sum.Pool, ds.Device, ds.Platform, ds.Placed,
			ts.Offered, ts.Rejected, ts.Completed, ts.MeanMs, ts.P50Ms, ts.P95Ms,
			ts.P99Ms, ts.MaxMs, ts.Violations, ts.ViolationRate, ts.ThroughputRPS,
			ds.Summary.CacheHits, ds.Summary.CacheMisses, ds.Summary.CacheUpgrades,
			ts.SLOAttainmentPct(), ds.Summary.MixPolicy); err != nil {
			return err
		}
	}
	tot := sum.Total
	var hits, misses, upgrades int
	for _, ds := range sum.Devices {
		hits += ds.Summary.CacheHits
		misses += ds.Summary.CacheMisses
		upgrades += ds.Summary.CacheUpgrades
	}
	if err := c.row(sum.Placement, sum.Pool, tot.Tenant, "fleet", tot.Offered,
		tot.Offered, tot.Rejected, tot.Completed, tot.MeanMs, tot.P50Ms, tot.P95Ms,
		tot.P99Ms, tot.MaxMs, tot.Violations, tot.ViolationRate, tot.ThroughputRPS,
		hits, misses, upgrades, sum.SLOAttainmentPct, sum.MixPolicy); err != nil {
		return err
	}
	return c.flush()
}

// ControlCSV writes a control-plane run as one event-sourced table: the
// pool-size timeline ("pool" rows, one per control tick), the scaling
// events ("scale" rows: grow/drain/remove) and the migrations ("migration"
// rows), all on the shared virtual timeline and sorted as recorded. Sparse
// columns are empty for rows of another kind.
func ControlCSV(w io.Writer, sum *control.Summary) error {
	c := newCSV(w)
	if err := c.row("kind", "at_ms", "active", "draining", "backlog_ms",
		"utilization_pct", "action", "device", "platform", "seeded",
		"tenant", "from", "to", "reason", "rolling_p99_ms", "violation_rate",
		"mix", "reaction_ticks"); err != nil {
		return err
	}
	for _, s := range sum.Timeline {
		if err := c.row("pool", s.AtMs, s.Active, s.Draining, s.BacklogMs,
			s.UtilizationPct, "", "", "", "", "", "", "", "", "", "", "", ""); err != nil {
			return err
		}
	}
	for _, e := range sum.Scale {
		// reaction_ticks is grow-only (see control.ScaleEvent); other
		// actions leave the column empty rather than a meaningless zero.
		reaction := any("")
		if e.Action == "grow" {
			reaction = e.ReactionTicks
		}
		if err := c.row("scale", e.AtMs, e.Active, "", e.BacklogMs, "",
			e.Action, e.Device, e.Platform, e.Seeded, "", "", "", "", "", "",
			e.Mix, reaction); err != nil {
			return err
		}
	}
	for _, m := range sum.Migrations {
		if err := c.row("migration", m.AtMs, "", "", "", "", "", "", "", "",
			m.Tenant, m.From, m.To, m.Reason, m.RollingP99Ms, m.ViolationRate, "", ""); err != nil {
			return err
		}
	}
	return c.flush()
}

// ShardSummaryCSV writes a sharded run's merged summary: the plane
// totals first, then one row per shard.
func ShardSummaryCSV(w io.Writer, sum *shard.Summary) error {
	c := newCSV(w)
	if err := c.row("shard", "tenants", "slo_attainment_pct", "violations",
		"p99_ms", "device_ms", "peak_devices", "gossip_tx", "gossip_rx",
		"warm_hits", "solve_assists", "deferred"); err != nil {
		return err
	}
	if err := c.row("plane", "", sum.SLOAttainmentPct, sum.Total.Violations,
		sum.Total.P99Ms, sum.DeviceMs, sum.PeakDevices, sum.GossipTxEntries,
		sum.GossipRxEntries, sum.WarmHits, sum.SolveAssists, sum.Deferred); err != nil {
		return err
	}
	for _, ss := range sum.PerShard {
		if err := c.row(ss.Shard, len(ss.Tenants),
			ss.Control.Fleet.SLOAttainmentPct, ss.Control.Fleet.Total.Violations,
			ss.Control.Fleet.Total.P99Ms, ss.Control.DeviceMs, ss.Control.PeakDevices,
			ss.GossipTxEntries, ss.GossipRxEntries, ss.WarmHits, ss.SolveAssists,
			ss.Deferred); err != nil {
			return err
		}
	}
	return c.flush()
}

// Fig7CSV writes the dynamic-convergence series (one row per update).
func Fig7CSV(w io.Writer, phases []experiments.Fig7Phase) error {
	c := newCSV(w)
	if err := c.row("phase", "nodes", "deploy_ms", "latency_ms", "baseline_ms", "optimal_ms"); err != nil {
		return err
	}
	for i, ph := range phases {
		for _, u := range ph.Updates {
			if err := c.row(i+1, u.Nodes, u.DeployMs, u.LatencyMs, ph.BaselineMs, ph.OptimalMs); err != nil {
				return err
			}
		}
	}
	return c.flush()
}

// AuditCSV writes a prediction-audit snapshot: one row per (layer, scope,
// key) aggregate with count, means, signed bias, MAPE and the calibration
// histogram (one column per predicted/actual ratio bucket). Rows come in
// the snapshot's sorted order, so the table is deterministic.
func AuditCSV(w io.Writer, stats []obs.AuditStat) error {
	c := newCSV(w)
	header := []any{"layer", "scope", "key", "count", "mean_predicted_ms",
		"mean_actual_ms", "bias_ms", "mape_pct"}
	for _, label := range obs.CalibrationLabels {
		header = append(header, "ratio_"+label)
	}
	if err := c.row(header...); err != nil {
		return err
	}
	for _, s := range stats {
		row := []any{s.Layer, s.Scope, s.Key, s.Count, s.MeanPredictedMs,
			s.MeanActualMs, s.BiasMs, s.MAPEPct}
		for _, b := range s.Buckets {
			row = append(row, b)
		}
		if err := c.row(row...); err != nil {
			return err
		}
	}
	return c.flush()
}

// MetricsCSV writes a registry snapshot as a two-column name,value table
// (rows sorted by name — the registry's snapshot order), the spreadsheet
// counterpart of obs.Registry.WriteJSONL.
func MetricsCSV(w io.Writer, metrics []obs.Metric) error {
	c := newCSV(w)
	if err := c.row("metric", "value"); err != nil {
		return err
	}
	for _, m := range metrics {
		if err := c.row(m.Name, m.Value); err != nil {
			return err
		}
	}
	return c.flush()
}
