package soc

// Orin returns the NVIDIA AGX Orin model: Ampere GPU (1792 CUDA + 64 tensor
// cores), NVDLA v2.0, 204.8 GB/s LPDDR5 (Table 4).
func Orin() *Platform {
	return &Platform{
		Name: "Orin",
		Accels: []Accelerator{
			{
				Name: "GPU", Kind: GPU,
				PeakGFLOPS: 60000, EffMin: 0.02, EffMax: 0.80, EffHalfFLOPs: 1.0e9,
				FCFactor: 0.6, DWFactor: 0.35,
				MaxBW: 140, WeightStream: 0.20, TrafficAmp: 2.2,
				TransitionFixedMs: 0.015, FlushGBps: 40, ReformatGBps: 30,
			},
			{
				Name: "DLA", Kind: DLA,
				PeakGFLOPS: 20000, EffMin: 0.06, EffMax: 0.75, EffHalfFLOPs: 7.0e8,
				FCFactor: 0.18, DWFactor: 0.20,
				MaxBW: 70, WeightStream: 0.30, TrafficAmp: 1.8,
				TransitionFixedMs: 0.025, FlushGBps: 18, ReformatGBps: 10,
			},
			cpuAccel(8000),
		},
		EMCBandwidth: 204.8,
		SatFrac:      0.62,
	}
}

// Xavier returns the NVIDIA Xavier AGX model: Volta GPU (512 CUDA + 64
// tensor cores), NVDLA v1.0, 136.5 GB/s LPDDR4 (Table 4).
func Xavier() *Platform {
	return &Platform{
		Name: "Xavier",
		Accels: []Accelerator{
			{
				Name: "GPU", Kind: GPU,
				PeakGFLOPS: 10000, EffMin: 0.12, EffMax: 0.72, EffHalfFLOPs: 6.0e8,
				FCFactor: 0.6, DWFactor: 0.35,
				MaxBW: 90, WeightStream: 0.20, TrafficAmp: 3.0,
				TransitionFixedMs: 0.020, FlushGBps: 25, ReformatGBps: 18,
			},
			{
				Name: "DLA", Kind: DLA,
				PeakGFLOPS: 5500, EffMin: 0.17, EffMax: 0.62, EffHalfFLOPs: 8.0e8,
				FCFactor: 0.15, DWFactor: 0.18,
				MaxBW: 42, WeightStream: 0.30, TrafficAmp: 2.4,
				TransitionFixedMs: 0.035, FlushGBps: 10, ReformatGBps: 6,
			},
			cpuAccel(3000),
		},
		EMCBandwidth: 136.5,
		SatFrac:      0.52,
	}
}

// SD865 returns the Qualcomm Snapdragon 865 development-kit model: Adreno
// 650 GPU, Hexagon 698 DSP, 34.1 GB/s LPDDR5 (Table 4). The two DSAs are
// much more balanced than on the NVIDIA parts, and the narrow 64-bit memory
// interface makes contention proportionally harsher — both effects the
// paper calls out for experiments 9 and 10.
func SD865() *Platform {
	return &Platform{
		Name: "SD865",
		Accels: []Accelerator{
			{
				Name: "GPU", Kind: GPU,
				PeakGFLOPS: 1250, EffMin: 0.10, EffMax: 0.55, EffHalfFLOPs: 5.0e8,
				FCFactor: 0.5, DWFactor: 0.40,
				MaxBW: 22, WeightStream: 0.25, TrafficAmp: 2.0,
				TransitionFixedMs: 0.10, FlushGBps: 8, ReformatGBps: 6,
			},
			{
				Name: "DSP", Kind: DSP,
				PeakGFLOPS: 1000, EffMin: 0.12, EffMax: 0.55, EffHalfFLOPs: 4.0e8,
				FCFactor: 0.35, DWFactor: 0.30,
				MaxBW: 18, WeightStream: 0.30, TrafficAmp: 1.8,
				TransitionFixedMs: 0.12, FlushGBps: 6, ReformatGBps: 5,
			},
			cpuAccel(500),
		},
		EMCBandwidth: 34.1,
		SatFrac:      0.60,
	}
}

// cpuAccel models the Arm CPU complex. It exists so that CPU co-runners
// (e.g. the on-line Z3-equivalent solver of Table 7) can inject memory
// demand into the contention model; DNN layers are never mapped to it by
// the schedulers in this repository.
func cpuAccel(peakGFLOPS float64) Accelerator {
	return Accelerator{
		Name: "CPU", Kind: CPU,
		PeakGFLOPS: peakGFLOPS, EffMin: 0.20, EffMax: 0.50, EffHalfFLOPs: 1.0e8,
		FCFactor: 0.5, DWFactor: 0.5,
		MaxBW: 20, WeightStream: 0.5, TrafficAmp: 1.5,
		TransitionFixedMs: 0.05, FlushGBps: 10, ReformatGBps: 10,
	}
}

// models lists every platform model by name, in Platforms' order, so
// PlatformByName builds only the model it returns.
var models = []struct {
	name  string
	build func() *Platform
}{
	{"Orin", Orin}, {"Xavier", Xavier}, {"SD865", SD865}, {"OrinNX", OrinNX}, {"XavierNX", XavierNX},
}

// Platforms returns the three evaluated platforms in paper order, then the
// two NX variants.
func Platforms() []*Platform {
	out := make([]*Platform, len(models))
	for i, m := range models {
		out[i] = m.build()
	}
	return out
}

// PlatformByName returns the named platform model ("Orin", "Xavier",
// "SD865", "OrinNX", "XavierNX") or false.
func PlatformByName(name string) (*Platform, bool) {
	for _, m := range models {
		if m.name == name {
			return m.build(), true
		}
	}
	return nil, false
}

// OrinNX returns the Jetson Orin NX 16GB model: a cut-down Ampere GPU
// (1024 CUDA cores), NVDLA v2.0 and a 102.4 GB/s LPDDR5 interface — half
// of the AGX's memory system, which makes shared-memory contention
// proportionally harsher.
func OrinNX() *Platform {
	p := Orin()
	p.Name = "OrinNX"
	p.EMCBandwidth = 102.4
	gpu := &p.Accels[0]
	gpu.PeakGFLOPS = 32000
	gpu.MaxBW = 80
	dla := &p.Accels[1]
	dla.PeakGFLOPS = 14000
	dla.MaxBW = 50
	cpu := &p.Accels[2]
	cpu.MaxBW = 15
	return p
}

// XavierNX returns the Jetson Xavier NX model: 384-core Volta GPU, NVDLA
// v1.0, 59.7 GB/s LPDDR4x.
func XavierNX() *Platform {
	p := Xavier()
	p.Name = "XavierNX"
	p.EMCBandwidth = 59.7
	gpu := &p.Accels[0]
	gpu.PeakGFLOPS = 7000
	gpu.MaxBW = 40
	dla := &p.Accels[1]
	dla.PeakGFLOPS = 4000
	dla.MaxBW = 25
	cpu := &p.Accels[2]
	cpu.MaxBW = 12
	return p
}
