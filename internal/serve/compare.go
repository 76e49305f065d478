package serve

import "fmt"

// Leg is one configuration of a comparison: a name, and a function that
// serves a trace on a fresh instance of that configuration and returns
// the leg's row (Summary holding its full summary).
type Leg struct {
	Name  string
	Serve func(Trace) (Row, error)
}

// Row is one leg of a comparison: the figures every layer's summary
// shares, then the leg against the baseline (the first leg; positive is
// better).
type Row struct {
	Leg       string
	Pool      string
	MixPolicy string
	Total     TenantStats
	// SLOAttainmentPct is the leg's overall attainment, DeviceMs its
	// device-time (virtual ms summed over the devices while they were in
	// the pool) and PeakDevices its largest pool.
	SLOAttainmentPct float64
	DeviceMs         float64
	PeakDevices      int

	// Against the baseline: the p99 reduction, the SLO violations
	// avoided, the throughput gain and the device-time saved.
	P99ImprPct        float64
	ViolationsAvoided int
	ThroughputImprPct float64
	DeviceMsSavedPct  float64

	// Summary is the leg's full summary: *Summary, *fleet.Summary,
	// *control.Summary or *shard.Summary.
	Summary any
}

// Compare serves tr on each leg in order and reports every leg's row
// against the first leg's. An error names the leg that failed.
func Compare(tr Trace, legs ...Leg) ([]Row, error) {
	rows := make([]Row, 0, len(legs))
	for _, leg := range legs {
		row, err := leg.Serve(tr)
		if err != nil {
			return nil, fmt.Errorf("%s leg: %w", leg.Name, err)
		}
		row.Leg = leg.Name
		base := row
		if len(rows) > 0 {
			base = rows[0]
		}
		row.P99ImprPct = reductionPct(base.Total.P99Ms, row.Total.P99Ms)
		row.ViolationsAvoided = base.Total.Violations - row.Total.Violations
		if b := base.Total.ThroughputRPS; b > 0 {
			row.ThroughputImprPct = 100 * (row.Total.ThroughputRPS/b - 1)
		}
		row.DeviceMsSavedPct = reductionPct(base.DeviceMs, row.DeviceMs)
		rows = append(rows, row)
	}
	return rows, nil
}

// reductionPct is how far v falls below a positive base, in percent.
func reductionPct(base, v float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - v/base)
}

// RuntimeLeg serves the trace on a fresh runtime built from cfg: one
// device, on for the whole run.
func RuntimeLeg(name string, cfg Config) Leg {
	return Leg{Name: name, Serve: func(tr Trace) (Row, error) {
		rt, err := New(cfg)
		if err != nil {
			return Row{}, err
		}
		sum, err := rt.Serve(tr)
		if err != nil {
			return Row{}, err
		}
		return Row{Pool: sum.Platform, MixPolicy: sum.MixPolicy, Total: sum.Total,
			SLOAttainmentPct: sum.Total.SLOAttainmentPct(), DeviceMs: sum.DurationMs,
			PeakDevices: 1, Summary: sum}, nil
	}}
}

// Legs returns the legs of a serving comparison, each configuration
// once: the naive single-accelerator baseline and the contention-aware
// runtime under cfg's mix forming, then the contention-aware runtime
// under each of fifo, demand-balance and contention-aware mix forming
// that cfg does not already use. Each leg gets a fresh runtime and
// cache. Under a shared sink (tracer, registry or audit) a leg's device
// is renamed <name>/<leg>, so the legs get distinct tracks and metric
// namespaces; the name never reaches a summary.
func Legs(cfg Config) []Leg {
	base := cfg.Name
	if base == "" && cfg.Platform != nil {
		base = cfg.Platform.Name
	}
	var legs []Leg
	add := func(name string, c Config) {
		if c.Tracer != nil || c.Metrics != nil || c.Audit != nil {
			c.Name = base + "/" + name
		}
		legs = append(legs, RuntimeLeg(name, c))
	}
	for _, pol := range []Policy{NaiveGPUOnly, ContentionAware} {
		c := cfg
		c.Policy = pol
		add(pol.String(), c)
	}
	for _, mix := range []string{MixFIFO, MixDemandBalance, MixContentionAware} {
		if cfg.Mix == nil && MixPolicyName(cfg.MixPolicy) == mix {
			continue // the contention-aware leg serves it
		}
		c := cfg
		c.Policy, c.MixPolicy, c.Mix = ContentionAware, mix, nil
		add("mix-"+mix, c)
	}
	return legs
}
