// Package profiler builds the characterization tables that drive HaX-CoNN's
// scheduler (Sec. 3.2-3.3 of the paper): per-group standalone latency,
// inter-accelerator transition costs, and requested memory throughput.
//
// Latencies and transition costs come from standalone runs of the
// performance model (the paper uses TensorRT IProfiler plus MarkOutput/
// addInput instrumentation). Memory demand on the GPU is observed directly
// (Nsight Compute); black-box DSAs (DLA, Hexagon) cannot be profiled that
// way, so their demand is *estimated* with the paper's four-step method:
// conv microbenchmarks establish the EMC-utilization ratio between the GPU
// and the DSA, and a group's DSA demand is its GPU demand divided by that
// ratio. The estimation error this introduces is deliberate — it is what
// the epsilon slack of Eq. 9 absorbs on real systems.
//
// Like the paper, which profiles each DNN offline once per platform, the
// package keeps one process-wide memo of per-network tables and per-platform
// demand ratios. A network's tables are keyed by the platform's accelerators
// (element by element) and EMC bandwidth, the *nn.Network pointer (stable
// for nn.ByName's shared zoo), the resolved group cap and ExactDSADemand, so
// the memo is bounded by the zoo × the platforms × the group caps in use.
// Every Profile built from one key shares that key's tables: callers must
// never write to a returned Profile.
package profiler

import (
	"fmt"
	"slices"
	"sync"

	"haxconn/internal/nn"
	"haxconn/internal/perf"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// Options control characterization.
type Options struct {
	// MaxGroups caps layer groups per network (default nn.DefaultMaxGroups).
	MaxGroups int
	// ExactDSADemand bypasses the EMC-ratio estimation and reads DSA
	// demand from the performance model directly (ablation/testing).
	ExactDSADemand bool
}

func (o Options) maxGroups() int {
	if o.MaxGroups < 1 {
		return nn.DefaultMaxGroups
	}
	return o.MaxGroups
}

// Characterize profiles every network of the problem on every non-CPU
// accelerator of the platform and assembles the schedule.Profile, taking
// each network's tables from the memo when present.
func Characterize(prob *schedule.Problem, opts Options) (*schedule.Profile, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	p := prob.Platform
	// A NaN parameter never compares equal to itself, so it would add a
	// memo entry on every call.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pr := &schedule.Profile{Platform: p}
	for ai, a := range p.Accels {
		if a.Kind != soc.CPU {
			pr.Allowed = append(pr.Allowed, ai)
		}
	}
	if len(pr.Allowed) < 2 {
		return nil, fmt.Errorf("profiler: platform %s has %d schedulable accelerators, need >= 2", p.Name, len(pr.Allowed))
	}
	// Held across a miss, so concurrent callers compute each table once.
	memo.Lock()
	defer memo.Unlock()
	pt := memoPlatform(p)
	for _, it := range prob.Items {
		k := netKey{net: it.Net, maxGroups: opts.maxGroups(), exact: opts.ExactDSADemand}
		t, ok := pt.nets[k]
		if !ok {
			t = characterizeNet(p, pt.ratios, k)
			pt.nets[k] = t
		}
		pr.Groups = append(pr.Groups, t.Groups...)
		pr.Exec = append(pr.Exec, t.Exec...)
		pr.TransOutMs = append(pr.TransOutMs, t.TransOutMs...)
		pr.TransInMs = append(pr.TransInMs, t.TransInMs...)
		pr.OutBytes = append(pr.OutBytes, t.OutBytes...)
	}
	return pr, nil
}

// memo is the process-wide characterization memo; see the package doc.
var memo struct {
	sync.Mutex
	platforms []*platformTables
}

// platformTables holds one platform's demand ratios and, per netKey, a
// one-item Profile of the network's tables. accels and emcBW, copies of
// every platform input the tables read, identify the platform.
type platformTables struct {
	accels []soc.Accelerator
	emcBW  float64
	ratios map[int]float64
	nets   map[netKey]*schedule.Profile
}

type netKey struct {
	net       *nn.Network
	maxGroups int
	exact     bool
}

// memoPlatform returns p's memo entry, adding it on first sight. The
// caller holds the memo's lock.
func memoPlatform(p *soc.Platform) *platformTables {
	for _, pt := range memo.platforms {
		if pt.emcBW == p.EMCBandwidth && slices.Equal(pt.accels, p.Accels) {
			return pt
		}
	}
	pt := &platformTables{accels: slices.Clone(p.Accels), emcBW: p.EMCBandwidth,
		ratios: demandRatios(p), nets: map[netKey]*schedule.Profile{}}
	memo.platforms = append(memo.platforms, pt)
	return pt
}

// characterizeNet computes one network's tables on p as a one-item
// Profile without Platform or Allowed.
func characterizeNet(p *soc.Platform, ratios map[int]float64, k netKey) *schedule.Profile {
	groups := nn.Groups(k.net, k.maxGroups)
	exec := make([][]schedule.GroupExec, len(groups))
	tout := make([][]float64, len(groups))
	tin := make([][]float64, len(groups))
	outBytes := make([]int64, len(groups))
	for gi, g := range groups {
		exec[gi] = make([]schedule.GroupExec, len(p.Accels))
		tout[gi] = make([]float64, len(p.Accels))
		tin[gi] = make([]float64, len(p.Accels))
		outBytes[gi] = g.OutputBytes()
		gpuProf := perf.Group(p.GPU(), g)
		for ai, a := range p.Accels {
			gp := perf.Group(a, g)
			e := schedule.GroupExec{
				LatencyMs:    gp.LatencyMs,
				DemandGBps:   gp.DemandGBps,
				MemIntensity: gp.MemIntensity,
			}
			if !k.exact && (a.Kind == soc.DLA || a.Kind == soc.DSP) {
				// Four-step black-box estimation: GPU demand scaled by
				// the microbenchmark EMC ratio; memory intensity taken
				// from the GPU profile of the same layers.
				if r := ratios[ai]; r > 0 {
					e.DemandGBps = gpuProf.DemandGBps / r
					if e.DemandGBps > a.MaxBW {
						e.DemandGBps = a.MaxBW
					}
				}
				e.MemIntensity = gpuProf.MemIntensity
			}
			exec[gi][ai] = e
			tout[gi][ai] = perf.TransitionOutMs(a, g.OutputBytes())
			tin[gi][ai] = perf.TransitionInMs(a, g.InputBytes())
		}
	}
	return &schedule.Profile{Groups: [][]nn.Group{groups}, Exec: [][][]schedule.GroupExec{exec},
		TransOutMs: [][][]float64{tout}, TransInMs: [][][]float64{tin}, OutBytes: [][]int64{outBytes}}
}

// MicrobenchGrid returns the conv microbenchmark layers of Fig. 3: input
// sizes i1-i5 = (224,224,64), (224,112,64), (112,112,64), (112,56,64),
// (56,56,64) crossed with filter sizes f1-f5 = 1x1..5x5.
func MicrobenchGrid() []nn.Layer {
	inputs := []nn.Dims{
		{H: 224, W: 224, C: 64}, {H: 224, W: 112, C: 64}, {H: 112, W: 112, C: 64},
		{H: 112, W: 56, C: 64}, {H: 56, W: 56, C: 64},
	}
	var layers []nn.Layer
	for i, in := range inputs {
		for f := 1; f <= 5; f++ {
			layers = append(layers, nn.Layer{
				Name: fmt.Sprintf("i%d_f%d", i+1, f),
				Type: nn.Conv, In: in, Out: nn.Dims{H: in.H, W: in.W, C: 64},
				Kernel: f, Stride: 1,
			})
		}
	}
	return layers
}

// demandRatios measures, per accelerator, the average EMC-utilization ratio
// GPU/DSA over the microbenchmark grid — step 2-3 of the black-box method.
func demandRatios(p *soc.Platform) map[int]float64 {
	gpu := p.GPU()
	ratios := make(map[int]float64)
	for ai, a := range p.Accels {
		if a.Kind != soc.DLA && a.Kind != soc.DSP {
			continue
		}
		var sum float64
		var n int
		for _, l := range MicrobenchGrid() {
			ug := perf.EMCUtilization(p, gpu, l)
			ud := perf.EMCUtilization(p, a, l)
			if ud > 0 {
				sum += ug / ud
				n++
			}
		}
		if n > 0 {
			ratios[ai] = sum / float64(n)
		}
	}
	return ratios
}

// Table2Row is one characterization row of the paper's Table 2.
type Table2Row struct {
	Label        string  // layer index range, e.g. "0-9"
	GPUMs        float64 // E time on GPU
	DLAMs        float64 // E time on DLA
	Ratio        float64 // D/G execution time ratio
	GtoDMs       float64 // transition time GPU -> DLA after the group
	DtoGMs       float64 // transition time DLA -> GPU after the group
	MemThroughPc float64 // standalone memory throughput, % of EMC
}

// Table2 characterizes a network's layer groups on a platform's GPU and
// DSA, reproducing Table 2 of the paper.
func Table2(p *soc.Platform, net *nn.Network, maxGroups int) []Table2Row {
	gpu, dsa := p.GPU(), p.DSA()
	groups := nn.Groups(net, maxGroups)
	rows := make([]Table2Row, 0, len(groups))
	for _, g := range groups {
		gp := perf.Group(gpu, g)
		dp := perf.Group(dsa, g)
		rows = append(rows, Table2Row{
			Label:        fmt.Sprintf("%d-%d", g.Start, g.End),
			GPUMs:        gp.LatencyMs,
			DLAMs:        dp.LatencyMs,
			Ratio:        dp.LatencyMs / gp.LatencyMs,
			GtoDMs:       perf.TransitionOutMs(gpu, g.OutputBytes()) + perf.TransitionInMs(dsa, g.OutputBytes()),
			DtoGMs:       perf.TransitionOutMs(dsa, g.OutputBytes()) + perf.TransitionInMs(gpu, g.OutputBytes()),
			MemThroughPc: 100 * gp.DemandGBps / p.EMCBandwidth,
		})
	}
	return rows
}
