// Package soc describes shared-memory heterogeneous System-on-Chip platforms:
// the set of DNN-capable accelerators, their compute and bandwidth envelopes,
// and the external memory controller (EMC) they contend for.
//
// The parameter sets for NVIDIA AGX Orin, NVIDIA Xavier AGX and Qualcomm
// Snapdragon 865 follow Table 4 of the paper (memory bandwidth, accelerator
// generations) with effective-throughput constants calibrated so standalone
// runtimes land in the regime of the paper's Table 5.
package soc

import (
	"fmt"
	"math"
)

// Kind classifies a processing unit.
type Kind int

// Processing-unit kinds present on the evaluated SoCs.
const (
	GPU Kind = iota
	DLA      // NVIDIA deep learning accelerator
	DSP      // Qualcomm Hexagon
	CPU
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case GPU:
		return "GPU"
	case DLA:
		return "DLA"
	case DSP:
		return "DSP"
	case CPU:
		return "CPU"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Accelerator is one processing unit of a platform together with its
// performance envelope. Latency prediction uses a roofline with a saturating
// efficiency curve: effective compute = PeakGFLOPS * eff(layer FLOPs), where
// eff rises from EffMin toward EffMax with half-saturation at EffHalfFLOPs.
// Large parallel devices (GPUs) have high peaks but need big layers to
// saturate; fixed-function DSAs saturate quickly but peak lower — this is
// exactly the property HaX-CoNN exploits (Table 2: D/G ratio 1.4x-2x).
type Accelerator struct {
	Name string
	Kind Kind

	PeakGFLOPS   float64 // effective peak compute, GFLOP/s (fp16)
	EffMin       float64 // efficiency floor for tiny layers
	EffMax       float64 // efficiency ceiling for huge layers
	EffHalfFLOPs float64 // layer FLOPs at half saturation

	FCFactor float64 // efficiency multiplier on fully-connected layers
	DWFactor float64 // efficiency multiplier on depthwise convolutions

	MaxBW        float64 // max achievable DRAM bandwidth for this PU, GB/s
	WeightStream float64 // fraction of weight bytes hitting DRAM per frame
	// TrafficAmp multiplies activation bytes into effective DRAM traffic:
	// tiled convolutions re-read inputs across output tiles and spill
	// partial results, so a layer's DRAM traffic exceeds its tensor
	// footprint (this is why Table 2 of the paper sees 40-80% EMC
	// utilization from single layers).
	TrafficAmp float64

	// Transition cost parameters (Sec. 3.2): flushing a tensor out of the
	// PU's private cache/pipeline, and reformatting one into its native
	// layout when execution enters it.
	TransitionFixedMs float64
	FlushGBps         float64
	ReformatGBps      float64
}

// Platform is a shared-memory SoC: accelerators plus the EMC they share.
type Platform struct {
	Name   string
	Accels []Accelerator

	// EMCBandwidth is the total external memory bandwidth (GB/s, Table 4).
	EMCBandwidth float64
	// SatFrac is the fraction of EMCBandwidth deliverable before requests
	// start queueing: the saturation point of the contention model.
	SatFrac float64
}

// SatBW returns the usable bandwidth before contention-induced queueing.
func (p *Platform) SatBW() float64 { return p.EMCBandwidth * p.SatFrac }

// AccelByKind returns the first accelerator of the given kind.
func (p *Platform) AccelByKind(k Kind) (Accelerator, bool) {
	for _, a := range p.Accels {
		if a.Kind == k {
			return a, true
		}
	}
	return Accelerator{}, false
}

// AccelIndex returns the index of the named accelerator, or -1.
func (p *Platform) AccelIndex(name string) int {
	for i, a := range p.Accels {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// DSA returns the platform's non-GPU DNN accelerator (DLA or DSP). Every
// evaluated platform has exactly one (the paper limits itself to two
// programmable DSAs per SoC).
func (p *Platform) DSA() Accelerator {
	for _, a := range p.Accels {
		if a.Kind == DLA || a.Kind == DSP {
			return a
		}
	}
	panic("soc: platform " + p.Name + " has no DSA")
}

// GPU returns the platform's GPU.
func (p *Platform) GPU() Accelerator {
	a, ok := p.AccelByKind(GPU)
	if !ok {
		panic("soc: platform " + p.Name + " has no GPU")
	}
	return a
}

// Validate checks that the platform parameters are finite and physically
// sensible.
func (p *Platform) Validate() error {
	if !finite(p.EMCBandwidth, p.SatFrac) || p.EMCBandwidth <= 0 || p.SatFrac <= 0 || p.SatFrac > 1 {
		return fmt.Errorf("soc: %s: bad EMC parameters (bw=%g sat=%g)", p.Name, p.EMCBandwidth, p.SatFrac)
	}
	if len(p.Accels) == 0 {
		return fmt.Errorf("soc: %s: no accelerators", p.Name)
	}
	for _, a := range p.Accels {
		if !finite(a.PeakGFLOPS, a.EffMin, a.EffMax, a.EffHalfFLOPs, a.FCFactor, a.DWFactor,
			a.MaxBW, a.WeightStream, a.TrafficAmp, a.TransitionFixedMs, a.FlushGBps, a.ReformatGBps) {
			return fmt.Errorf("soc: %s/%s: non-finite parameter", p.Name, a.Name)
		}
		if a.PeakGFLOPS <= 0 || a.MaxBW <= 0 {
			return fmt.Errorf("soc: %s/%s: bad peak/bandwidth", p.Name, a.Name)
		}
		if a.EffMin < 0 || a.EffMax <= a.EffMin || a.EffMax > 1 || a.EffHalfFLOPs <= 0 {
			return fmt.Errorf("soc: %s/%s: bad efficiency curve", p.Name, a.Name)
		}
		if a.MaxBW > p.EMCBandwidth {
			return fmt.Errorf("soc: %s/%s: accelerator bandwidth exceeds EMC", p.Name, a.Name)
		}
		if a.TrafficAmp < 1 {
			return fmt.Errorf("soc: %s/%s: traffic amplification %g below 1", p.Name, a.Name, a.TrafficAmp)
		}
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
