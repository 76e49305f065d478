// Compare: the controlled fleet against a static fleet of its maximum
// size on identical traffic — the experiment that quantifies what the
// control plane is worth. The static pool is what an operator would
// provision for the burst (the controlled fleet's initial pool plus every
// device the growth cycle could add); the controlled fleet reaches that
// size only while pressure lasts.
package control

import (
	"fmt"

	"haxconn/internal/fleet"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
)

// CompareResult holds one trace served both ways.
type CompareResult struct {
	// Controlled is the elastic run; Static the fixed max-size pool under
	// StaticPlacement.
	Controlled      *Summary
	Static          *fleet.Summary
	StaticPlacement string
	// StaticDeviceMs is the static pool's device-time: pool size times the
	// run's virtual duration (every provisioned device is on for the whole
	// run).
	StaticDeviceMs float64
}

// MaxPool returns the device specs of the controlled fleet's maximum
// shape: the initial pool plus the growth cycle up to MaxDevices.
func MaxPool(cfg Config) []fleet.DeviceSpec {
	cfg = cfg.withDefaults()
	var specs []fleet.DeviceSpec
	n := 0
	for _, d := range cfg.Fleet.Devices {
		// Copy the whole spec so per-spec knobs (MixPolicy) carry over to
		// the static baseline; only Count is normalized.
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

// Compare serves the trace on the controlled fleet and on a static fleet
// of the maximum size under the given placement policy (default
// least-loaded, cmd/fleet's default).
func Compare(cfg Config, tr serve.Trace, staticPlacement fleet.Placer) (*CompareResult, error) {
	if staticPlacement == nil {
		staticPlacement = fleet.LeastLoaded()
	}
	ctrl, err := New(cfg)
	if err != nil {
		return nil, err
	}
	controlled, err := ctrl.Serve(tr)
	if err != nil {
		return nil, err
	}
	sc := ctrl.Config().Fleet
	sc.Devices = MaxPool(ctrl.Config())
	sc.Placement = staticPlacement
	// Only the controlled leg is observed: the static baseline rebuilds
	// identically-named devices, and two legs in one trace (or one audit's
	// per-device aggregates, or one registry) would overlap.
	sc.Device.Tracer, sc.Device.Audit, sc.Device.Metrics = nil, nil, nil
	sf, err := fleet.New(sc)
	if err != nil {
		return nil, err
	}
	static, err := sf.Serve(tr)
	if err != nil {
		return nil, err
	}
	return &CompareResult{
		Controlled:      controlled,
		Static:          static,
		StaticPlacement: staticPlacement.Name(),
		StaticDeviceMs:  float64(len(sf.Devices())) * static.DurationMs,
	}, nil
}

// Wins reports, metric by metric, whether the controlled fleet beat the
// static one: total p99 latency, SLO violations, and device-time consumed.
func (r *CompareResult) Wins() (p99, violations, deviceMs bool) {
	p99 = r.Controlled.Fleet.Total.P99Ms < r.Static.Total.P99Ms
	violations = r.Controlled.Fleet.Total.Violations < r.Static.Total.Violations
	deviceMs = r.Controlled.DeviceMs < r.StaticDeviceMs
	return
}

// WinCount is the number of metrics the controlled fleet wins (0-3).
func (r *CompareResult) WinCount() int {
	a, b, c := r.Wins()
	n := 0
	for _, w := range []bool{a, b, c} {
		if w {
			n++
		}
	}
	return n
}

// String renders the headline comparison compactly.
func (r *CompareResult) String() string {
	ct, st := r.Controlled.Fleet.Total, r.Static.Total
	return fmt.Sprintf(
		"controlled: p99 %.2f ms, %d violations, %.0f device-ms (peak %d devices) | static[%s]: p99 %.2f ms, %d violations, %.0f device-ms",
		ct.P99Ms, ct.Violations, r.Controlled.DeviceMs, r.Controlled.PeakDevices,
		r.StaticPlacement, st.P99Ms, st.Violations, r.StaticDeviceMs)
}

// assignToSchedule deep-copies a persisted assignment into a schedule.
func assignToSchedule(assign [][]int) *schedule.Schedule {
	s := &schedule.Schedule{Assign: make([][]int, len(assign))}
	for i, row := range assign {
		s.Assign[i] = append([]int(nil), row...)
	}
	return s
}
