// Compare legs: the controlled fleet against a static fleet of its
// maximum size on identical traffic — the experiment that quantifies
// what the control plane is worth. The static pool is what an operator
// would provision for the burst (the controlled fleet's initial pool plus
// every device the growth cycle could add); the controlled fleet reaches
// that size only while pressure lasts.
package control

import (
	"haxconn/internal/fleet"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
)

// MaxPool returns the device specs of the controlled fleet's maximum
// shape: the initial pool plus the growth cycle up to MaxDevices.
func MaxPool(cfg Config) []fleet.DeviceSpec {
	cfg = cfg.withDefaults()
	var specs []fleet.DeviceSpec
	n := 0
	for _, d := range cfg.Fleet.Devices {
		spec := d
		if spec.Count == 0 {
			spec.Count = 1
		}
		specs = append(specs, spec)
		n += spec.Count
	}
	for i := 0; n < cfg.MaxDevices; i++ {
		specs = append(specs, fleet.DeviceSpec{Platform: cfg.GrowPlatforms[i%len(cfg.GrowPlatforms)]})
		n++
	}
	return specs
}

// Leg serves the trace on a fresh controller built from cfg.
func Leg(name string, cfg Config) serve.Leg {
	return serve.Leg{Name: name, Serve: func(tr serve.Trace) (serve.Row, error) {
		c, err := New(cfg)
		if err != nil {
			return serve.Row{}, err
		}
		sum, err := c.Serve(tr)
		if err != nil {
			return serve.Row{}, err
		}
		return serve.Row{Pool: sum.Fleet.Pool, MixPolicy: sum.Fleet.MixPolicy,
			Total: sum.Fleet.Total, SLOAttainmentPct: sum.Fleet.SLOAttainmentPct,
			DeviceMs: sum.DeviceMs, PeakDevices: sum.PeakDevices, Summary: sum}, nil
	}}
}

// Legs returns the legs of an elasticity comparison: a static fleet of
// the controlled fleet's maximum shape under staticPlacement (default
// least-loaded, cmd/fleet's default) as the baseline, then the
// controlled fleet. Only the controlled leg is observed: the static
// baseline rebuilds identically-named devices, and two legs in one trace
// (or one audit's per-device aggregates, or one registry) would overlap.
func Legs(cfg Config, staticPlacement fleet.Placer) ([]serve.Leg, error) {
	if staticPlacement == nil {
		staticPlacement = fleet.LeastLoaded()
	}
	ctrl, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sc := ctrl.Config().Fleet
	sc.Devices = MaxPool(ctrl.Config())
	sc.Placement = staticPlacement
	sc.Device.Tracer, sc.Device.Audit, sc.Device.Metrics = nil, nil, nil
	return []serve.Leg{
		fleet.Leg("static:"+staticPlacement.Name(), sc),
		Leg("controlled:sticky", cfg),
	}, nil
}

// assignToSchedule deep-copies a persisted assignment into a schedule.
func assignToSchedule(assign [][]int) *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(assign))}
	for i, row := range assign {
		s.Assign[i] = append([]int(nil), row...)
	}
	return s
}
