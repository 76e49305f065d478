package experiments

import (
	"fmt"
	"time"

	"haxconn/internal/baselines"
	"haxconn/internal/core"
	"haxconn/internal/perf"
	"haxconn/internal/profiler"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
)

// Fig1Result reproduces the motivating case study (Fig. 1): VGG-19 and
// ResNet101 on Xavier under three execution regimes. Paper values: 11.3,
// 10.6, 8.7 ms.
type Fig1Result struct {
	SerialGPUMs       float64 // Case 1: both DNNs serially on the GPU
	NaiveConcurrentMs float64 // Case 2: VGG19 on GPU, ResNet101 on DLA
	HaXCoNNMs         float64 // Case 3: contention-aware layer-level mapping
	Schedule          string
}

// Fig1 runs the case study.
func Fig1() (*Fig1Result, error) {
	p, _ := soc.PlatformByName("Xavier")
	cmp, err := core.Compare(core.Request{
		Platform:  p,
		Networks:  []string{"VGG19", "ResNet101"},
		Objective: schedule.MinMaxLatency,
	})
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		SerialGPUMs:       cmp.Baselines["GPU-only"].MeasuredMs,
		NaiveConcurrentMs: cmp.Baselines["GPU&DSA"].MeasuredMs,
		HaXCoNNMs:         cmp.HaXCoNN.MeasuredMs,
		Schedule:          cmp.HaXCoNN.Description,
	}, nil
}

// Fig3Point is one bar of Fig. 3: EMC utilization of a conv microbenchmark
// on the GPU and the DLA.
type Fig3Point struct {
	Name   string
	GPUPct float64
	DLAPct float64
}

// Fig3 profiles the 25-point conv grid on Orin.
func Fig3() []Fig3Point {
	p, _ := soc.PlatformByName("Orin")
	gpu, dla := p.GPU(), p.DSA()
	var pts []Fig3Point
	for _, l := range profiler.MicrobenchGrid() {
		pts = append(pts, Fig3Point{
			Name:   l.Name,
			GPUPct: perf.EMCUtilization(p, gpu, l),
			DLAPct: perf.EMCUtilization(p, dla, l),
		})
	}
	return pts
}

// Fig4Result reproduces the contention-interval illustration of Fig. 4:
// five layers from three DNNs on three accelerators, with non-uniform
// per-interval slowdowns.
type Fig4Result struct {
	Intervals []sim.Interval
	Records   []sim.TaskRecord
}

// Fig4 runs the synthetic three-accelerator workload. The platform is a
// hypothetical SoC (the figure is an illustration, not a measurement) with
// three identical DSAs behind one EMC.
func Fig4() (*Fig4Result, error) {
	p := &soc.Platform{
		Name:         "Hypo3",
		EMCBandwidth: 100,
		SatFrac:      0.7,
	}
	for i := 0; i < 3; i++ {
		p.Accels = append(p.Accels, soc.Accelerator{
			Name: fmt.Sprintf("DSA%d", i+1), Kind: soc.GPU,
			PeakGFLOPS: 1000, EffMin: 0.1, EffMax: 0.6, EffHalfFLOPs: 1e8,
			FCFactor: 0.5, DWFactor: 0.5, MaxBW: 60, WeightStream: 0.2, TrafficAmp: 1,
			TransitionFixedMs: 0.02, FlushGBps: 10, ReformatGBps: 10,
		})
	}
	sat := p.SatBW()
	w := sim.Workload{Streams: []sim.Stream{
		{Name: "DNN1", Labels: []string{"L11"}, Tasks: []sim.Task{
			{Accel: 0, BaseMs: 4, DemandGBps: 0.5 * sat, MemIntensity: 0.8},
		}},
		{Name: "DNN2", Labels: []string{"L21", "L22"}, Tasks: []sim.Task{
			{Accel: 1, BaseMs: 2, DemandGBps: 0.6 * sat, MemIntensity: 0.9},
			{Accel: 1, BaseMs: 3, DemandGBps: 0.3 * sat, MemIntensity: 0.5},
		}},
		{Name: "DNN3", Labels: []string{"L31"}, Tasks: []sim.Task{
			{Accel: 2, BaseMs: 3, DemandGBps: 0.4 * sat, MemIntensity: 0.7},
		}},
	}}
	res, err := sim.Run(p, w, sim.GroundTruth{SatBW: sat})
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Intervals: res.Intervals, Records: res.Records}, nil
}

// Fig5Row is one experiment of Scenario 1 (Fig. 5): two instances of the
// same DNN on Orin, throughput in FPS.
type Fig5Row struct {
	Network  string
	GPUOnly  float64
	NaiveFPS float64
	MensaFPS float64
	HaXFPS   float64
	ImprPct  float64 // over the best baseline
	Schedule string
}

// Fig5Networks are the five DNNs of the Scenario 1 figure.
var Fig5Networks = []string{"GoogleNet", "ResNet101", "Inception", "VGG19", "ResNet152"}

// Fig5 runs Scenario 1 for each network.
func Fig5() ([]Fig5Row, error) {
	p, _ := soc.PlatformByName("Orin")
	var rows []Fig5Row
	for _, name := range Fig5Networks {
		cmp, err := core.Compare(core.Request{
			Platform:  p,
			Networks:  []string{name, name},
			Objective: schedule.MaxThroughput,
		})
		if err != nil {
			return nil, err
		}
		row := Fig5Row{
			Network:  name,
			GPUOnly:  cmp.Baselines["GPU-only"].FPS,
			NaiveFPS: cmp.Baselines["GPU&DSA"].FPS,
			MensaFPS: cmp.Baselines["Mensa"].FPS,
			HaXFPS:   cmp.HaXCoNN.FPS,
			Schedule: cmp.HaXCoNN.Description,
		}
		best := row.GPUOnly
		for _, v := range []float64{row.NaiveFPS, row.MensaFPS} {
			if v > best {
				best = v
			}
		}
		if best > 0 {
			row.ImprPct = 100 * (row.HaXFPS/best - 1)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6Row is one bar pair of Fig. 6: the slowdown GoogleNet-on-GPU suffers
// while a co-runner occupies the DLA, under the naive placement and under
// the HaX-CoNN schedule.
type Fig6Row struct {
	CoRunner      string
	NaiveSlowdown float64
	HaXSlowdown   float64
}

// Fig6CoRunners are the co-running DNNs of the figure.
var Fig6CoRunners = []string{"CaffeNet", "DenseNet", "Inception", "ResNet101", "ResNet152", "VGG19"}

// Fig6 measures GoogleNet's contention slowdown on Xavier: the
// duration-weighted average slowdown of its tasks (actual over standalone
// time, straight from the simulator's contention intervals), excluding
// queueing effects — the quantity the paper's figure plots relative to an
// isolated GPU run.
func Fig6() ([]Fig6Row, error) {
	p, _ := soc.PlatformByName("Xavier")
	gt := sim.GroundTruth{SatBW: p.SatBW()}
	var rows []Fig6Row
	for _, co := range Fig6CoRunners {
		cmp, err := core.Compare(core.Request{
			Platform:  p,
			Networks:  []string{"GoogleNet", co},
			Objective: schedule.MinMaxLatency,
		})
		if err != nil {
			return nil, err
		}
		prob, pr := cmp.HaXCoNN.Problem, cmp.HaXCoNN.Profile
		slow := func(s *schedule.Schedule) (float64, error) {
			ev, err := schedule.Evaluate(prob, pr, s, gt)
			if err != nil {
				return 0, err
			}
			var actual, base float64
			for _, rec := range ev.Result.Records {
				if rec.Stream != 0 || rec.Slowdown <= 0 {
					continue
				}
				d := rec.EndMs - rec.StartMs
				actual += d
				base += d / rec.Slowdown
			}
			if base <= 0 {
				return 1, nil
			}
			return actual / base, nil
		}
		naive, err := slow(baselines.NaiveConcurrent(pr))
		if err != nil {
			return nil, err
		}
		hax, err := slow(cmp.HaXCoNN.Schedule)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{CoRunner: co, NaiveSlowdown: naive, HaXSlowdown: hax})
	}
	return rows, nil
}

// Fig7Phase is one 10-second phase of the dynamic experiment (Fig. 7): a
// DNN pair whose schedule D-HaX-CoNN improves on-line.
type Fig7Phase struct {
	Networks   []string
	After      [][]int
	BaselineMs float64 // naive initial schedule, deployed at t=0
	OptimalMs  float64 // oracle: full solve
	// Updates are the measured latencies of each incumbent the runtime
	// deploys, with the solver time at which it became available.
	Updates []Fig7Update
}

// Fig7Update is one deployed schedule improvement.
type Fig7Update struct {
	SolverTime time.Duration
	LatencyMs  float64
}

// Fig7 runs the three phases of the dynamic scenario (the DNN pairs of
// experiments 2, 5 and 1, in that order, as in the paper).
func Fig7() ([]Fig7Phase, error) {
	p, _ := soc.PlatformByName("Xavier")
	defs := []struct {
		nets  []string
		after [][]int
	}{
		{[]string{"ResNet152", "Inception"}, nil},
		{[]string{"GoogleNet", "ResNet152", "FCN-ResNet18"}, [][]int{nil, {0}, nil}},
		{[]string{"VGG19", "ResNet152"}, nil},
	}
	var phases []Fig7Phase
	for _, d := range defs {
		any, prob, pr, err := core.PlanDynamic(core.Request{
			Platform:  p,
			Networks:  d.nets,
			After:     d.after,
			Objective: schedule.MinMaxLatency,
		})
		if err != nil {
			return nil, err
		}
		phase := Fig7Phase{Networks: d.nets, After: d.after}
		naive, err := core.Measure(prob, pr, baselines.NaiveConcurrent(pr))
		if err != nil {
			return nil, err
		}
		phase.BaselineMs = naive.MeasuredMs
		final, err := core.Measure(prob, pr, any.Best)
		if err != nil {
			return nil, err
		}
		phase.OptimalMs = final.MeasuredMs
		for _, inc := range any.History {
			m, err := core.Measure(prob, pr, inc.Schedule)
			if err != nil {
				return nil, err
			}
			phase.Updates = append(phase.Updates, Fig7Update{SolverTime: inc.Elapsed, LatencyMs: m.MeasuredMs})
		}
		phases = append(phases, phase)
	}
	return phases, nil
}
