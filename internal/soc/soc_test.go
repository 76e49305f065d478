package soc

import (
	"math"
	"testing"
)

func TestPlatformsValidate(t *testing.T) {
	for _, p := range Platforms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPlatformByName(t *testing.T) {
	for _, name := range []string{"Orin", "Xavier", "SD865"} {
		p, ok := PlatformByName(name)
		if !ok || p.Name != name {
			t.Errorf("PlatformByName(%q) = %v, %v", name, p, ok)
		}
	}
	if _, ok := PlatformByName("TPUv9"); ok {
		t.Error("unknown platform should not resolve")
	}
}

func TestTable4Bandwidths(t *testing.T) {
	// Memory bandwidths straight from Table 4 of the paper.
	want := map[string]float64{"Orin": 204.8, "Xavier": 136.5, "SD865": 34.1}
	for name, bw := range want {
		p, _ := PlatformByName(name)
		if p.EMCBandwidth != bw {
			t.Errorf("%s EMC bandwidth = %g, want %g", name, p.EMCBandwidth, bw)
		}
	}
}

func TestAccessors(t *testing.T) {
	for _, p := range Platforms() {
		g := p.GPU()
		if g.Kind != GPU {
			t.Errorf("%s GPU() returned kind %v", p.Name, g.Kind)
		}
		d := p.DSA()
		if d.Kind != DLA && d.Kind != DSP {
			t.Errorf("%s DSA() returned kind %v", p.Name, d.Kind)
		}
		if p.AccelIndex(g.Name) < 0 {
			t.Errorf("%s AccelIndex(GPU) < 0", p.Name)
		}
		if p.AccelIndex("no-such") != -1 {
			t.Error("AccelIndex of unknown accel should be -1")
		}
	}
}

func TestSatBW(t *testing.T) {
	p := Orin()
	want := 204.8 * 0.62
	if got := p.SatBW(); got != want {
		t.Errorf("SatBW = %g, want %g", got, want)
	}
}

func TestKindString(t *testing.T) {
	for k, s := range map[Kind]string{GPU: "GPU", DLA: "DLA", DSP: "DSP", CPU: "CPU"} {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind renders as %q", Kind(42).String())
	}
}

func TestValidateRejectsBadPlatforms(t *testing.T) {
	p := Orin()
	p.EMCBandwidth = 0
	if err := p.Validate(); err == nil {
		t.Error("zero EMC bandwidth should fail")
	}
	p = Orin()
	p.Accels[0].MaxBW = p.EMCBandwidth * 2
	if err := p.Validate(); err == nil {
		t.Error("accelerator bandwidth above EMC should fail")
	}
	p = Orin()
	p.Accels = nil
	if err := p.Validate(); err == nil {
		t.Error("no accelerators should fail")
	}
	p = Orin()
	p.Accels[0].EffMax = p.Accels[0].EffMin // degenerate curve
	if err := p.Validate(); err == nil {
		t.Error("degenerate efficiency curve should fail")
	}
	// NaN fails every "<= 0" check, so NaN EMC, saturation and accelerator
	// parameters used to pass.
	fields := map[string]func(p *Platform, x float64){
		"EMCBandwidth":      func(p *Platform, x float64) { p.EMCBandwidth = x },
		"SatFrac":           func(p *Platform, x float64) { p.SatFrac = x },
		"PeakGFLOPS":        func(p *Platform, x float64) { p.Accels[1].PeakGFLOPS = x },
		"EffMin":            func(p *Platform, x float64) { p.Accels[1].EffMin = x },
		"EffMax":            func(p *Platform, x float64) { p.Accels[1].EffMax = x },
		"EffHalfFLOPs":      func(p *Platform, x float64) { p.Accels[1].EffHalfFLOPs = x },
		"FCFactor":          func(p *Platform, x float64) { p.Accels[1].FCFactor = x },
		"DWFactor":          func(p *Platform, x float64) { p.Accels[1].DWFactor = x },
		"MaxBW":             func(p *Platform, x float64) { p.Accels[1].MaxBW = x },
		"WeightStream":      func(p *Platform, x float64) { p.Accels[1].WeightStream = x },
		"TrafficAmp":        func(p *Platform, x float64) { p.Accels[1].TrafficAmp = x },
		"TransitionFixedMs": func(p *Platform, x float64) { p.Accels[1].TransitionFixedMs = x },
		"FlushGBps":         func(p *Platform, x float64) { p.Accels[1].FlushGBps = x },
		"ReformatGBps":      func(p *Platform, x float64) { p.Accels[1].ReformatGBps = x },
	}
	for name, set := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := Orin()
			set(p, x)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %g should fail", name, x)
			}
		}
	}
}
