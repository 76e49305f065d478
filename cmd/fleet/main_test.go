package main

import (
	"testing"

	"haxconn/internal/cliutil"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// TestCompareModeDefaults is the CLI-level acceptance check: -mode compare
// with the default three-device Orin+Xavier+SD865 pool and the default
// two-tenant trace must show least-loaded or affinity beating single-SoC
// serving on fleet p99 latency and SLO violations.
func TestCompareModeDefaults(t *testing.T) {
	specs, err := cliutil.ParseTenants("alice:VGG19:140:10,bob:ResNet152:140:12", "poisson")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := serve.Generate(specs, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cliutil.ParseDevices("Orin,Xavier,SD865")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := fleet.Compare(fleet.Config{Devices: pool, Device: serve.Config{SolverTimeScale: 50}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	won := false
	for _, fs := range cmp.Fleets {
		if fs.Placement != "least-loaded" && fs.Placement != "affinity" {
			continue
		}
		if fs.MixPolicy != serve.MixFIFO {
			t.Errorf("default fleet mix policy = %q, want %q", fs.MixPolicy, serve.MixFIFO)
		}
		if fs.Total.P99Ms < cmp.Single.Total.P99Ms && fs.Total.Violations < cmp.Single.Total.Violations {
			won = true
			t.Logf("%s beats single-%s: p99 %.2f < %.2f ms, violations %d < %d",
				fs.Placement, cmp.SinglePlatform, fs.Total.P99Ms, cmp.Single.Total.P99Ms,
				fs.Total.Violations, cmp.Single.Total.Violations)
		}
	}
	if !won {
		t.Error("no load-aware placement beat the single SoC on p99 and violations")
	}
}

// TestMixFlagThreadsToDevices: the -mix flag value must reach every
// device of the pool (the template's MixPolicy), and a per-spec override
// must beat the template's.
func TestMixFlagThreadsToDevices(t *testing.T) {
	pool, err := cliutil.ParseDevices("Orin,Xavier")
	if err != nil {
		t.Fatal(err)
	}
	pool[1].MixPolicy = serve.MixSLOAware
	f, err := fleet.New(fleet.Config{Devices: pool, Device: serve.Config{MixPolicy: serve.MixDemandBalance}})
	if err != nil {
		t.Fatal(err)
	}
	devs := f.Devices()
	if got := devs[0].MixPolicy(); got != serve.MixDemandBalance {
		t.Errorf("device 0 mix policy = %q, want fleet default %q", got, serve.MixDemandBalance)
	}
	if got := devs[1].MixPolicy(); got != serve.MixSLOAware {
		t.Errorf("device 1 mix policy = %q, want per-spec override %q", got, serve.MixSLOAware)
	}
	if _, err := fleet.New(fleet.Config{Devices: pool[:1], Device: serve.Config{MixPolicy: "lifo"}}); err == nil {
		t.Error("unknown fleet mix policy accepted")
	}
}
