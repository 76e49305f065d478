// Package cliutil holds the flag-parsing and artifact-output helpers the
// serving commands (cmd/serve, cmd/fleet, cmd/control) share: the shared
// serving flags, declared once and bound straight into the serve.Config
// device template each command builds; the sharded-plane flags, bound
// into a shard.Config; the observability flags; tenant and device-pool
// spec parsing; the comparison table; CSV/JSON output writing through
// WriteFile, which cmd/obsreport's -out uses too; and schedule-cache
// save/load. Keeping one copy here means a flag, spec-format or
// persistence change lands in every command at once.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"haxconn/internal/fleet"
	"haxconn/internal/obs"
	"haxconn/internal/report"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
	"haxconn/internal/soc"
)

// ServingFlags declares the serving flags the three commands share on fs,
// each bound to the field of the device template cfg it sets: -objective,
// -mix, -mixbeam, -maxwait, -scale and -adaptivewait, plus the admission
// flags -maxbatch, -maxqueue and -admitslo when admission is true.
// -objective and -mix are checked as they parse, so an unknown name is a
// flag error.
func ServingFlags(fs *flag.FlagSet, cfg *serve.Config, admission bool) {
	cfg.Objective, cfg.MixPolicy = schedule.MinMaxLatency, serve.MixFIFO
	fs.Var(objectiveFlag{&cfg.Objective}, "objective", "per-mix scheduling `objective`: latency or fps")
	fs.Var(mixFlag{&cfg.MixPolicy}, "mix", "mix-forming `policy`: "+strings.Join(serve.MixPolicies(), ", "))
	fs.IntVar(&cfg.ScoreBeam, "mixbeam", 0, "candidate batches the contention-aware mix policy scores per round (0 = default)")
	fs.IntVar(&cfg.MaxWaitRounds, "maxwait", 0, "rounds a request may be passed over by a non-FIFO mix policy before being forced (0 = default)")
	fs.Float64Var(&cfg.SolverTimeScale, "scale", 50, "solver-time stretch onto the virtual timeline")
	fs.BoolVar(&cfg.AdaptiveMaxWait, "adaptivewait", false, "scale the max-wait bound by the oldest request's SLO slack (starved requests force sooner)")
	if admission {
		fs.IntVar(&cfg.MaxBatch, "maxbatch", 0, "max concurrent requests per dispatch round (default: #accelerators)")
		fs.IntVar(&cfg.MaxQueue, "maxqueue", 0, "per-tenant pending-queue cap per device; 0 = unlimited")
		fs.Float64Var(&cfg.AdmitSLOFactor, "admitslo", 0, "reject requests whose estimated latency exceeds this factor x SLO; 0 = admit all")
	}
}

// objectiveFlag binds -objective to the per-mix scheduling objective by
// name: "latency" (MinMaxLatency, Eq. 11) or "fps" (MaxThroughput,
// Eq. 10).
type objectiveFlag struct{ p *schedule.Objective }

func (f objectiveFlag) String() string {
	switch {
	case f.p == nil:
		return ""
	case *f.p == schedule.MaxThroughput:
		return "fps"
	}
	return "latency"
}

func (f objectiveFlag) Set(name string) error {
	switch name {
	case "latency":
		*f.p = schedule.MinMaxLatency
	case "fps":
		*f.p = schedule.MaxThroughput
	default:
		return fmt.Errorf("unknown objective %q (want latency or fps)", name)
	}
	return nil
}

// mixFlag binds -mix to a mix-policy name, accepting only built-in ones.
type mixFlag struct{ p *string }

func (f mixFlag) String() string {
	if f.p == nil {
		return ""
	}
	return *f.p
}

func (f mixFlag) Set(name string) error {
	if _, err := serve.NewMixFormer(name); err != nil {
		return err
	}
	*f.p = name
	return nil
}

// ParseTenants parses comma-separated name:network:rate:slo tenant specs.
// With "poisson" arrivals the rate field is requests per second; with
// "periodic" it is the period in milliseconds.
func ParseTenants(s, arrivals string) ([]serve.TenantSpec, error) {
	if arrivals != "poisson" && arrivals != "periodic" {
		return nil, fmt.Errorf("unknown arrival process %q", arrivals)
	}
	var specs []serve.TenantSpec
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("tenant spec %q: want name:network:rate:slo", part)
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("tenant spec %q: bad rate: %v", part, err)
		}
		slo, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("tenant spec %q: bad SLO: %v", part, err)
		}
		sp := serve.TenantSpec{Name: fields[0], Network: fields[1], SLOMs: slo}
		if arrivals == "poisson" {
			sp.RateRPS = rate
		} else {
			sp.PeriodMs = rate
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// ParseDevices parses comma-separated platform[:count] device-pool specs.
func ParseDevices(s string) ([]fleet.DeviceSpec, error) {
	var specs []fleet.DeviceSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		spec := fleet.DeviceSpec{Platform: part}
		if i := strings.IndexByte(part, ':'); i >= 0 {
			n, err := strconv.Atoi(part[i+1:])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("device spec %q: bad count", part)
			}
			spec.Platform, spec.Count = part[:i], n
		}
		if spec.Platform == "" {
			return nil, fmt.Errorf("device spec %q: no platform", part)
		}
		if _, ok := soc.PlatformByName(spec.Platform); !ok {
			return nil, fmt.Errorf("unknown platform %q (see -list)", spec.Platform)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no device specs in %q", s)
	}
	return specs, nil
}

// ShardFlags declares the sharded-control-plane flags (cmd/control's
// shard-compare and sharded serve modes) on fs, each bound to the field
// of cfg it sets: shard count, gossip barrier period, the ablation
// switches, handoff tuning, and the tenant and device pinning specs,
// which parse as they are read, so a malformed spec is a flag error.
func ShardFlags(fs *flag.FlagSet, cfg *shard.Config) {
	fs.IntVar(&cfg.Shards, "shards", 1, "partition the control plane into this many shards stepped concurrently (1 = the plain global controller)")
	fs.IntVar(&cfg.GossipEveryTicks, "gossip-every", 0, "gossip barrier period in control ticks (0 = shard default)")
	fs.BoolVar(&cfg.NoGossip, "no-gossip", false, "disable schedule-cache gossip between shards (barriers still run for handoff)")
	fs.BoolVar(&cfg.NoHandoff, "no-handoff", false, "disable cross-shard tenant handoff")
	fs.Float64Var(&cfg.HandoffBacklogMs, "handoff-backlog", 0, "mean backlog ms per device above which a shard hands a tenant off (0 = shard default)")
	fs.IntVar(&cfg.HandoffCooldownRounds, "handoff-cooldown", 0, "barrier rounds a moved tenant rests before moving again (0 = shard default)")
	fs.Func("tenant-shards", "pin tenants to shards as `name=shard`, comma-separated (unpinned tenants deal round-robin)", func(spec string) (err error) {
		cfg.TenantShard, err = ParseTenantShards(spec)
		return err
	})
	fs.Func("device-shards", "pin initial devices to shards as `poolIndex=shard`, comma-separated", func(spec string) (err error) {
		cfg.DeviceShard, err = ParseDeviceShards(spec)
		return err
	})
}

// ParseTenantShards parses a tenant-pinning spec ("cam-a=0,scorer-b=2")
// into tenant name → shard index. Empty input yields a nil map (no pins).
func ParseTenantShards(spec string) (map[string]int, error) {
	var out map[string]int
	for _, part := range SplitList(spec) {
		name, idxStr, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if !ok || name == "" || err != nil || idx < 0 {
			return nil, fmt.Errorf("tenant-shard %q: want name=shard with shard >= 0", part)
		}
		if out == nil {
			out = map[string]int{}
		}
		if prev, dup := out[name]; dup && prev != idx {
			return nil, fmt.Errorf("tenant-shard %q: %s already pinned to shard %d", part, name, prev)
		}
		out[name] = idx
	}
	return out, nil
}

// ParseDeviceShards parses a device-pinning spec ("0=1,3=0") — keys are
// positions in the expanded initial pool — into position → shard index.
// Empty input yields a nil map (no pins).
func ParseDeviceShards(spec string) (map[int]int, error) {
	var out map[int]int
	for _, part := range SplitList(spec) {
		posStr, idxStr, ok := strings.Cut(part, "=")
		pos, err1 := strconv.Atoi(strings.TrimSpace(posStr))
		idx, err2 := strconv.Atoi(strings.TrimSpace(idxStr))
		if !ok || err1 != nil || err2 != nil || pos < 0 || idx < 0 {
			return nil, fmt.Errorf("device-shard %q: want poolIndex=shard, both >= 0", part)
		}
		if out == nil {
			out = map[int]int{}
		}
		if prev, dup := out[pos]; dup && prev != idx {
			return nil, fmt.Errorf("device-shard %q: device %d already pinned to shard %d", part, pos, prev)
		}
		out[pos] = idx
	}
	return out, nil
}

// SplitList splits a comma-separated list, trimming whitespace and
// dropping empty entries.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// PrintComparison renders a comparison (serve.Compare) as a table on w:
// each leg's total figures, device-time and peak pool, then the leg
// against the baseline (the first row).
func PrintComparison(w io.Writer, rows []serve.Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "leg\tmix\tp50\tp99\tviol\treq/s\tSLO att.\tdevice-ms\tpeak\tp99 vs base\tviol avoided\treq/s vs base\tdevice-ms saved")
	for _, r := range rows {
		t := r.Total
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%d\t%.1f\t%.1f%%\t%.0f\t%d\t%+.1f%%\t%+d\t%+.1f%%\t%+.1f%%\n",
			r.Leg, r.MixPolicy, t.P50Ms, t.P99Ms, t.Violations, t.ThroughputRPS,
			r.SLOAttainmentPct, r.DeviceMs, r.PeakDevices, r.P99ImprPct,
			r.ViolationsAvoided, r.ThroughputImprPct, r.DeviceMsSavedPct)
	}
	tw.Flush()
}

// WriteOutputs writes the optional CSV and JSON artifacts of a run:
// writeCSV renders the summary at csvPath and v is serialized as indented
// JSON at jsonPath (either path may be empty). Each file written is
// reported on stdout, matching the commands' historical behavior.
func WriteOutputs(csvPath, jsonPath string, writeCSV func(io.Writer) error, v any) error {
	if csvPath != "" {
		if err := WriteFile(csvPath, writeCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if jsonPath != "" {
		if err := WriteFile(jsonPath, func(w io.Writer) error { return report.WriteJSON(w, v) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// WriteFile creates path, runs write on it and closes it. An error from
// writing or closing is wrapped with the path, so a file that only fails
// as it is flushed on close is reported too.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}

// LoadCache imports the snapshot matching the cache's platform from a
// cache-save file (cmd/serve's single-device -cache-load).
func LoadCache(path string, cache *serve.Cache) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	snaps, err := serve.LoadSnapshots(f)
	if err != nil {
		return 0, err
	}
	for _, snap := range snaps {
		if snap.Platform == cache.Platform().Name {
			return cache.Import(snap)
		}
	}
	return 0, fmt.Errorf("no snapshot for platform %s in %s", cache.Platform().Name, path)
}

// SaveCaches writes the caches' snapshots to path (cmd/serve's
// -cache-save).
func SaveCaches(path string, caches ...*serve.Cache) error {
	return WriteFile(path, func(w io.Writer) error { return serve.SaveCaches(w, caches...) })
}

// LoadFleetCaches imports every snapshot whose platform has a cache group
// in the fleet; snapshots for absent platforms are skipped (cmd/fleet's
// -cache-load).
func LoadFleetCaches(path string, f *fleet.Fleet) (int, error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	snaps, err := serve.LoadSnapshots(file)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, snap := range snaps {
		c := f.Cache(snap.Platform)
		if c == nil {
			continue
		}
		n, err := c.Import(snap)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// SaveFleetCaches writes every platform group's cache to path
// (cmd/fleet's -cache-save).
func SaveFleetCaches(path string, f *fleet.Fleet) error {
	var caches []*serve.Cache
	for _, p := range f.CachePlatforms() {
		caches = append(caches, f.Cache(p))
	}
	return SaveCaches(path, caches...)
}

// ObsFlags bundles the serving commands' shared observability flags:
// -trace (Chrome trace-event JSON for Perfetto), -trace-jsonl (the same
// events as JSON Lines), -metrics-out (the counter registry, JSONL or
// CSV by extension), -audit-out (the predicted-vs-actual audit table as
// CSV) and -sketch (streaming-quantile summaries). Register installs them
// on a FlagSet; Tracer/Metrics/Audit return the sinks (nil when the
// matching flag is off, so untraced runs pay nothing) and Apply wires
// them into a device template; WriteArtifacts writes whichever outputs
// were requested.
type ObsFlags struct {
	TracePath   string
	JSONLPath   string
	MetricsPath string
	AuditPath   string
	Sketch      bool

	tracer  *obs.Tracer
	metrics *obs.Registry
	audit   *obs.Audit
}

// Register installs the observability flags on the command's FlagSet.
func (o *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", "", "write Chrome trace-event JSON here (open in ui.perfetto.dev)")
	fs.StringVar(&o.JSONLPath, "trace-jsonl", "", "write trace events as JSON Lines here")
	fs.StringVar(&o.MetricsPath, "metrics-out", "", "write the metric registry here (.csv for CSV, else JSON Lines)")
	fs.StringVar(&o.AuditPath, "audit-out", "", "write the predicted-vs-actual audit table here (CSV: bias, MAPE, calibration buckets)")
	fs.BoolVar(&o.Sketch, "sketch", false, "streaming-quantile latency summaries (O(1) memory per tenant, ±0.5% percentiles)")
}

// Tracing reports whether any trace output was requested.
func (o *ObsFlags) Tracing() bool { return o.TracePath != "" || o.JSONLPath != "" }

// Tracer returns the shared event sink, created on first use; nil when no
// trace output was requested.
func (o *ObsFlags) Tracer() *obs.Tracer {
	if !o.Tracing() {
		return nil
	}
	if o.tracer == nil {
		o.tracer = obs.NewTracer()
	}
	return o.tracer
}

// Metrics returns the shared counter registry, created on first use; nil
// when no -metrics-out was requested.
func (o *ObsFlags) Metrics() *obs.Registry {
	if o.MetricsPath == "" {
		return nil
	}
	if o.metrics == nil {
		o.metrics = obs.NewRegistry()
	}
	return o.metrics
}

// Audit returns the shared prediction-audit sink, created on first use;
// nil when no -audit-out was requested.
func (o *ObsFlags) Audit() *obs.Audit {
	if o.AuditPath == "" {
		return nil
	}
	if o.audit == nil {
		o.audit = obs.NewAudit()
	}
	return o.audit
}

// Apply points the template's sinks at the requested outputs (nil where
// none was requested) and turns on sketch summaries under -sketch. Call
// it after the flags are parsed.
func (o *ObsFlags) Apply(cfg *serve.Config) {
	cfg.Tracer, cfg.Metrics, cfg.Audit = o.Tracer(), o.Metrics(), o.Audit()
	cfg.SketchMetrics = o.Sketch
}

// WriteArtifacts writes the requested observability outputs, reporting
// each file on stdout like WriteOutputs does.
func (o *ObsFlags) WriteArtifacts() error {
	write := func(path, what string, n int, fn func(io.Writer) error) error {
		if err := WriteFile(path, fn); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d %s)\n", path, n, what)
		return nil
	}
	if o.TracePath != "" {
		t := o.Tracer()
		if err := write(o.TracePath, "events", t.Len(), t.WriteChromeTrace); err != nil {
			return err
		}
	}
	if o.JSONLPath != "" {
		t := o.Tracer()
		if err := write(o.JSONLPath, "events", t.Len(), t.WriteJSONL); err != nil {
			return err
		}
	}
	if o.MetricsPath != "" {
		reg := o.Metrics()
		// Audit aggregates fold into the registry snapshot too, so the
		// metrics artifact carries the calibration headline numbers.
		o.Audit().FillMetrics(reg)
		fn := reg.WriteJSONL
		if strings.HasSuffix(o.MetricsPath, ".csv") {
			fn = func(w io.Writer) error { return report.MetricsCSV(w, reg.Snapshot()) }
		}
		if err := write(o.MetricsPath, "metrics", reg.Len(), fn); err != nil {
			return err
		}
	}
	if o.AuditPath != "" {
		a := o.Audit()
		fn := func(w io.Writer) error { return report.AuditCSV(w, a.Snapshot()) }
		if err := write(o.AuditPath, "aggregates", a.Len(), fn); err != nil {
			return err
		}
	}
	return nil
}
