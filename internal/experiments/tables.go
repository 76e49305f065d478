package experiments

import (
	"math"

	"haxconn/internal/core"
	"haxconn/internal/nn"
	"haxconn/internal/perf"
	"haxconn/internal/profiler"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/soc"
)

// Table2 reproduces the GoogleNet layer-group characterization (Table 2)
// on Xavier with ten groups.
func Table2() []profiler.Table2Row {
	p, _ := soc.PlatformByName("Xavier")
	return profiler.Table2(p, nn.MustByName("GoogleNet"), 10)
}

// T5Row is one row of Table 5: standalone runtimes on Orin and Xavier.
type T5Row struct {
	Network                  string
	OrinGPUMs, OrinDLAMs     float64
	XavierGPUMs, XavierDLAMs float64
	// Paper-reported values for comparison (0 where the paper has none).
	PaperOrinGPU, PaperOrinDLA, PaperXavierGPU, PaperXavierDLA float64
}

// paperT5 holds the published Table 5 values.
var paperT5 = map[string][4]float64{
	"CaffeNet":   {0.74, 1.79, 2.26, 5.51},
	"DenseNet":   {2.19, 3.10, 7.84, 0},
	"GoogleNet":  {0.99, 1.52, 1.98, 3.68},
	"Inc-res-v2": {3.06, 5.15, 15.12, 17.95},
	"Inception":  {2.49, 5.66, 8.31, 15.94},
	"ResNet18":   {0.41, 0.74, 1.37, 2.81},
	"ResNet50":   {0.91, 1.67, 2.88, 6.01},
	"ResNet101":  {1.56, 2.47, 5.34, 10.6},
	"ResNet152":  {2.19, 3.26, 7.7, 12.71},
	"VGG19":      {1.07, 2.93, 5.95, 19.05},
}

// Table5 measures standalone runtimes for the evaluation set.
func Table5() []T5Row {
	orin, _ := soc.PlatformByName("Orin")
	xavier, _ := soc.PlatformByName("Xavier")
	var rows []T5Row
	for _, net := range nn.EvaluationSet() {
		r := T5Row{
			Network:     net.Name,
			OrinGPUMs:   perf.NetworkLatencyMs(orin.GPU(), net),
			OrinDLAMs:   perf.NetworkLatencyMs(orin.DSA(), net),
			XavierGPUMs: perf.NetworkLatencyMs(xavier.GPU(), net),
			XavierDLAMs: perf.NetworkLatencyMs(xavier.DSA(), net),
		}
		if v, ok := paperT5[net.Name]; ok {
			r.PaperOrinGPU, r.PaperOrinDLA, r.PaperXavierGPU, r.PaperXavierDLA = v[0], v[1], v[2], v[3]
		}
		rows = append(rows, r)
	}
	return rows
}

// T7Row is one cell of Table 7: the overhead the on-line solver imposes on
// a concurrent DNN execution.
type T7Row struct {
	Network    string
	OverheadPc float64
}

// Table7Networks are the twelve networks of the overhead experiment.
var Table7Networks = []string{
	"CaffeNet", "DenseNet", "GoogleNet", "Inc-res-v2", "Inception", "MobileNet",
	"ResNet18", "ResNet50", "ResNet101", "ResNet152", "VGG16", "VGG19",
}

// SolverDemandGBps is the memory demand of the Z3-equivalent solver running
// on one CPU core (Sec. 5.3 attributes the <2% overhead to Z3's low memory
// footprint; a constraint search touches little DRAM).
const SolverDemandGBps = 1.5

// Table7 measures the solver overhead: AlexNet on the DLA plus each
// network on the GPU of Orin, with and without the solver's background
// memory demand on a CPU core.
func Table7() ([]T7Row, error) {
	p, _ := soc.PlatformByName("Orin")
	var rows []T7Row
	for _, name := range Table7Networks {
		base, err := table7Run(p, name, 0)
		if err != nil {
			return nil, err
		}
		loaded, err := table7Run(p, name, SolverDemandGBps)
		if err != nil {
			return nil, err
		}
		rows = append(rows, T7Row{
			Network:    name,
			OverheadPc: 100 * (loaded - base) / base,
		})
	}
	return rows, nil
}

func table7Run(p *soc.Platform, gpuNet string, solverDemand float64) (float64, error) {
	prob := &schedule.Problem{Platform: p, Items: []schedule.Item{
		{Net: nn.MustByName(gpuNet)},
		{Net: nn.MustByName("AlexNet")},
	}}
	pr, err := profiler.Characterize(prob, profiler.Options{})
	if err != nil {
		return 0, err
	}
	s := schedule.Uniform(pr, p.AccelIndex("GPU"))
	dla := p.AccelIndex("DLA")
	for g := range s.Assign[1] {
		s.Assign[1][g] = dla
	}
	w := schedule.BuildSim(prob, pr, s)
	if solverDemand > 0 {
		w.Background = append(w.Background, sim.Background{Label: "z3-solver", DemandGBps: solverDemand})
	}
	res, err := sim.Run(p, w, sim.GroundTruth{SatBW: p.SatBW()})
	if err != nil {
		return 0, err
	}
	return res.MakespanMs, nil
}

// T8Cell is one lower-triangle cell of Table 8: the best baseline for a
// DNN pair and HaX-CoNN's throughput ratio over it.
type T8Cell struct {
	Net1, Net2   string
	BestBaseline string
	// Ratio is HaX-CoNN FPS / best-baseline FPS; 1.0 means HaX-CoNN fell
	// back to the baseline schedule (the paper's "x" cells).
	Ratio float64
	// Iter1/Iter2 are the balancing iteration counts (the faster DNN runs
	// more frames, Sec. 5.4).
	Iter1, Iter2 int
	Schedule     string
}

// Table8Requests returns Table 8's problems in table order: every pair
// (i, j <= i) from the 10-network evaluation set on Orin, iteration-
// balanced, throughput objective.
func Table8Requests() []core.Request {
	p, _ := soc.PlatformByName("Orin")
	nets := nn.EvaluationSet()
	gpu := p.GPU()
	lat := make([]float64, len(nets))
	for i, n := range nets {
		lat[i] = perf.NetworkLatencyMs(gpu, n)
	}
	var reqs []core.Request
	for i := 0; i < len(nets); i++ {
		for j := 0; j <= i; j++ {
			it1, it2 := balanceIterations(lat[i], lat[j])
			reqs = append(reqs, core.Request{
				Platform:   p,
				Networks:   []string{nets[i].Name, nets[j].Name},
				Iterations: []int{it1, it2},
				Objective:  schedule.MaxThroughput,
			})
		}
	}
	return reqs
}

// Table8 runs the exhaustive pairwise evaluation on Orin: every pair from
// the 10-network evaluation set, iteration-balanced, throughput objective.
func Table8() ([]T8Cell, error) {
	reqs := Table8Requests()
	cells := make([]T8Cell, 0, len(reqs))
	for _, req := range reqs {
		cmp, err := core.Compare(req)
		if err != nil {
			return nil, err
		}
		name, best := cmp.BestBaseline(schedule.MaxThroughput)
		cell := T8Cell{
			Net1: req.Networks[0], Net2: req.Networks[1],
			BestBaseline: name,
			Iter1:        req.Iterations[0], Iter2: req.Iterations[1],
			Schedule: cmp.HaXCoNN.Description,
		}
		if best != nil && best.FPS > 0 {
			cell.Ratio = cmp.HaXCoNN.FPS / best.FPS
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// balanceIterations gives the faster DNN proportionally more frames so the
// concurrent durations roughly match (Sec. 5.4).
func balanceIterations(lat1, lat2 float64) (int, int) {
	if lat1 <= 0 || lat2 <= 0 {
		return 1, 1
	}
	r := lat1 / lat2
	clamp := func(x float64) int {
		n := int(math.Round(x))
		if n < 1 {
			return 1
		}
		if n > 8 {
			return 8
		}
		return n
	}
	if r >= 1 {
		return 1, clamp(r)
	}
	return clamp(1 / r), 1
}
