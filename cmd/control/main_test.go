package main

import (
	"encoding/json"
	"testing"

	"haxconn/internal/cliutil"
	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
)

// TestBuildTraceMatchesDemoBurst pins the CLI defaults to the library's
// canonical burst: the default tenants/duration/burst flags must generate
// exactly control.DemoBurstTrace, so the CLI demo, the example and the
// acceptance tests all serve the same traffic.
func TestBuildTraceMatchesDemoBurst(t *testing.T) {
	specs, err := cliutil.ParseTenants("cam-a:VGG19:20:10,cam-b:VGG19:20:10,scorer-a:ResNet152:20:12,scorer-b:ResNet152:20:12", "poisson")
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildTrace(specs, 2000, "600:500:7.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.DemoBurstTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Errorf("CLI default trace diverged from control.DemoBurstTrace (%d vs %d requests)", len(got), len(want))
	}
	if _, err := buildTrace(specs, 2000, "600:500", 1); err == nil {
		t.Error("malformed burst accepted")
	}
	if _, err := buildTrace(specs, 2000, "600:500:0.5", 1); err == nil {
		t.Error("burst factor below 1 accepted")
	}
	plain, err := buildTrace(specs, 2000, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) >= len(got) {
		t.Errorf("burstless trace (%d) not smaller than bursty (%d)", len(plain), len(got))
	}
}

// TestCompareModeDefaults is the CLI-level acceptance check: the default
// configuration must show the controlled fleet beating the static
// max-size fleet on at least two of p99, violations and device-time.
func TestCompareModeDefaults(t *testing.T) {
	tr, err := control.DemoBurstTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := control.Compare(control.Config{
		Fleet: fleet.Config{
			Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
			Device:  serve.Config{SolverTimeScale: 50},
		},
		MaxDevices:    3,
		GrowPlatforms: []string{"Xavier", "SD865"},
	}, tr, fleet.LeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.WinCount() < 2 {
		p99, viol, dms := cmp.Wins()
		t.Errorf("controlled wins %d of 3 (p99 %v, violations %v, device-time %v)",
			cmp.WinCount(), p99, viol, dms)
	}
}
