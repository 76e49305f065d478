// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5) on the simulator substrate. Each artifact has a
// structured producer (Table6, Fig5, ...) consumed by cmd/experiments for
// text rendering and by the repository-level benchmarks.
//
// Absolute numbers come from the simulator, not silicon; the Paper* fields
// carry the published values so reports can show paper-vs-measured side by
// side, as `go run ./cmd/experiments` prints them.
package experiments

import (
	"fmt"

	"haxconn/internal/core"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// Metrics is one measured (latency, throughput) point.
type Metrics struct {
	LatencyMs float64
	FPS       float64
}

// T6Def defines one of the ten experiments of Table 6.
type T6Def struct {
	Exp      int
	Platform string
	Goal     schedule.Objective
	Scenario int // 2, 3 or 4
	Networks []string
	After    [][]int // scenario 4 serial dependencies
	// FrameCount=1 marks steady-state streaming pipelines (Scenario 3).
	FrameCount int
	// Paper-reported improvement over the best baseline (fractions).
	PaperImprLat, PaperImprFPS float64
}

// Table6Defs returns the paper's ten experiment definitions.
func Table6Defs() []T6Def {
	return []T6Def{
		{Exp: 1, Platform: "Xavier", Goal: schedule.MinMaxLatency, Scenario: 2,
			Networks: []string{"VGG19", "ResNet152"}, PaperImprLat: 0.23, PaperImprFPS: 0.22},
		{Exp: 2, Platform: "Xavier", Goal: schedule.MinMaxLatency, Scenario: 2,
			Networks: []string{"ResNet152", "Inception"}, PaperImprLat: 0.20, PaperImprFPS: 0.18},
		{Exp: 3, Platform: "Xavier", Goal: schedule.MaxThroughput, Scenario: 3,
			Networks: []string{"AlexNet", "ResNet101"}, FrameCount: 1, PaperImprLat: 0.26, PaperImprFPS: 0.23},
		{Exp: 4, Platform: "Xavier", Goal: schedule.MaxThroughput, Scenario: 3,
			Networks: []string{"ResNet101", "GoogleNet"}, FrameCount: 1, PaperImprLat: 0, PaperImprFPS: 0},
		{Exp: 5, Platform: "Xavier", Goal: schedule.MinMaxLatency, Scenario: 4,
			Networks: []string{"GoogleNet", "ResNet152", "FCN-ResNet18"},
			After:    [][]int{nil, {0}, nil}, PaperImprLat: 0.22, PaperImprFPS: 0.21},
		{Exp: 6, Platform: "Orin", Goal: schedule.MinMaxLatency, Scenario: 2,
			Networks: []string{"VGG19", "ResNet152"}, PaperImprLat: 0.23, PaperImprFPS: 0.22},
		{Exp: 7, Platform: "Orin", Goal: schedule.MaxThroughput, Scenario: 3,
			Networks: []string{"GoogleNet", "ResNet101"}, FrameCount: 1, PaperImprLat: 0.19, PaperImprFPS: 0.18},
		{Exp: 8, Platform: "Orin", Goal: schedule.MinMaxLatency, Scenario: 4,
			Networks: []string{"ResNet101", "GoogleNet", "Inception"},
			After:    [][]int{nil, {0}, nil}, PaperImprLat: 0.13, PaperImprFPS: 0.12},
		{Exp: 9, Platform: "SD865", Goal: schedule.MaxThroughput, Scenario: 3,
			Networks: []string{"GoogleNet", "ResNet101"}, FrameCount: 1, PaperImprLat: 0.11, PaperImprFPS: 0.10},
		{Exp: 10, Platform: "SD865", Goal: schedule.MinMaxLatency, Scenario: 2,
			Networks: []string{"Inception", "ResNet152"}, PaperImprLat: 0.15, PaperImprFPS: 0.15},
	}
}

// T6Row is one measured row of Table 6.
type T6Row struct {
	Def          T6Def
	Baselines    map[string]Metrics
	BestBaseline string
	HaX          Metrics
	Schedule     string
	ImprLat      float64 // latency reduction vs best baseline (fraction)
	ImprFPS      float64 // FPS gain vs best baseline (fraction)
	SolverNodes  int     // HaX-CoNN's branch & bound nodes
	SolverEvals  int     // HaX-CoNN's schedule evaluations
}

// Request builds the core.Request for a Table 6 definition.
func (d T6Def) Request() (core.Request, error) {
	p, ok := soc.PlatformByName(d.Platform)
	if !ok {
		return core.Request{}, fmt.Errorf("experiments: unknown platform %s", d.Platform)
	}
	return core.Request{
		Platform:   p,
		Networks:   d.Networks,
		After:      d.After,
		FrameCount: d.FrameCount,
		Objective:  d.Goal,
	}, nil
}

// RunT6 executes a single Table 6 experiment.
func RunT6(d T6Def) (*T6Row, error) {
	req, err := d.Request()
	if err != nil {
		return nil, err
	}
	cmp, err := core.Compare(req)
	if err != nil {
		return nil, fmt.Errorf("experiments: exp %d: %w", d.Exp, err)
	}
	row := &T6Row{Def: d, Baselines: map[string]Metrics{}}
	for name, r := range cmp.Baselines {
		row.Baselines[name] = Metrics{LatencyMs: r.MeasuredMs, FPS: r.FPS}
	}
	row.BestBaseline, _ = cmp.BestBaseline(d.Goal)
	row.HaX = Metrics{LatencyMs: cmp.HaXCoNN.MeasuredMs, FPS: cmp.HaXCoNN.FPS}
	row.Schedule = cmp.HaXCoNN.Description
	row.SolverNodes, row.SolverEvals = cmp.HaXCoNN.SolverStats.Nodes, cmp.HaXCoNN.SolverStats.Evals
	_, best := cmp.BestBaseline(d.Goal)
	if best != nil {
		if best.MeasuredMs > 0 {
			row.ImprLat = 1 - row.HaX.LatencyMs/best.MeasuredMs
		}
		if best.FPS > 0 {
			row.ImprFPS = row.HaX.FPS/best.FPS - 1
		}
	}
	return row, nil
}

// Table6 runs all ten experiments.
func Table6() ([]*T6Row, error) {
	defs := Table6Defs()
	rows := make([]*T6Row, 0, len(defs))
	for _, d := range defs {
		row, err := RunT6(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
