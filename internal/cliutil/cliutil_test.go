package cliutil

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"haxconn/internal/fleet"
	"haxconn/internal/report"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

func TestParseTenants(t *testing.T) {
	specs, err := ParseTenants("alice:VGG19:140:10, bob:ResNet152:25:12", "poisson")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	if specs[0].Name != "alice" || specs[0].Network != "VGG19" ||
		specs[0].RateRPS != 140 || specs[0].SLOMs != 10 || specs[0].PeriodMs != 0 {
		t.Errorf("spec 0: %+v", specs[0])
	}
	specs, err = ParseTenants("cam:VGG19:33:40", "periodic")
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].PeriodMs != 33 || specs[0].RateRPS != 0 {
		t.Errorf("periodic spec: %+v", specs[0])
	}
	for _, bad := range []struct{ s, arr string }{
		{"alice:VGG19:140", "poisson"},
		{"alice:VGG19:x:10", "poisson"},
		{"alice:VGG19:140:y", "poisson"},
		{"alice:VGG19:140:10", "uniform"},
	} {
		if _, err := ParseTenants(bad.s, bad.arr); err == nil {
			t.Errorf("ParseTenants(%q, %q): expected error", bad.s, bad.arr)
		}
	}
}

func TestParseDevices(t *testing.T) {
	specs, err := ParseDevices("Orin:2, Xavier ,SD865")
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.DeviceSpec{
		{Platform: "Orin", Count: 2}, {Platform: "Xavier"}, {Platform: "SD865"},
	}
	if len(specs) != len(want) {
		t.Fatalf("%d specs", len(specs))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"", "Orin:0", "Orin:x", ":2", "TPUv9"} {
		if _, err := ParseDevices(bad); err == nil {
			t.Errorf("ParseDevices(%q): expected error", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	if got := SplitList(" Xavier, ,SD865 ,"); !reflect.DeepEqual(got, []string{"Xavier", "SD865"}) {
		t.Errorf("SplitList = %v", got)
	}
	if got := SplitList(""); got != nil {
		t.Errorf("SplitList(\"\") = %v", got)
	}
}

func TestWriteOutputsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	jsonPath := filepath.Join(dir, "out.json")
	sum := serve.Summarize([]serve.Completion{
		{Request: serve.Request{Tenant: "a", Network: "VGG19"}, EndMs: 3, LatencyMs: 3},
	}, serve.ContentionAware, "Orin", schedule.MinMaxLatency)
	if err := WriteOutputs(csvPath, jsonPath, func(w io.Writer) error { return report.ServingCSV(w, sum) }, sum); err != nil {
		t.Fatal(err)
	}
	csvBytes, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csvBytes, []byte("mix_policy")) {
		t.Errorf("CSV missing mix_policy column: %s", csvBytes)
	}
	jsonBytes, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got serve.Summary
	if err := json.Unmarshal(jsonBytes, &got); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if got.Total.Completed != 1 {
		t.Errorf("JSON round trip lost data: %+v", got.Total)
	}
	// Empty paths write nothing and succeed.
	if err := WriteOutputs("", "", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSaveLoadRoundTrip: SaveCaches/LoadCache must round-trip a
// solved cache through disk with every mix importable (the cmd/serve
// -cache-save/-cache-load path).
func TestCacheSaveLoadRoundTrip(t *testing.T) {
	cache, err := serve.NewCache(serve.CacheConfig{
		Platform:  soc.Orin(),
		Objective: schedule.MinMaxLatency,
		Solve:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Lookup([]string{"VGG19", "ResNet152"}, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := SaveCaches(path, cache); err != nil {
		t.Fatal(err)
	}
	fresh, err := serve.NewCache(serve.CacheConfig{
		Platform:  soc.Orin(),
		Objective: schedule.MinMaxLatency,
		Solve:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := LoadCache(path, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || fresh.Len() != 1 {
		t.Errorf("imported %d mixes, cache holds %d, want 1", n, fresh.Len())
	}
	// A cache of another platform finds no snapshot.
	other, err := serve.NewCache(serve.CacheConfig{Platform: soc.Xavier(), Objective: schedule.MinMaxLatency})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCache(path, other); err == nil {
		t.Error("snapshot for a missing platform accepted")
	}
}

// TestFleetCacheSaveLoadRoundTrip: the per-platform fleet variant —
// snapshots for platforms absent from the fleet are skipped.
func TestFleetCacheSaveLoadRoundTrip(t *testing.T) {
	f, err := fleet.New(fleet.Config{
		Devices:         []fleet.DeviceSpec{{Platform: "Orin"}, {Platform: "Xavier"}},
		SolverTimeScale: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := serve.Generate([]serve.TenantSpec{
		{Name: "alice", Network: "VGG19", RateRPS: 40, SLOMs: 15},
	}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve(tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet-cache.json")
	if err := SaveFleetCaches(path, f); err != nil {
		t.Fatal(err)
	}
	// An Orin-only fleet imports only the Orin snapshot.
	solo, err := fleet.New(fleet.Config{Devices: []fleet.DeviceSpec{{Platform: "Orin"}}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := LoadFleetCaches(path, solo)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no mixes imported for the Orin group")
	}
	if got := solo.Cache("Orin").Len(); got == 0 {
		t.Error("Orin cache empty after import")
	}
}

// TestLoadNullSnapshot: a cache file holding a null snapshot makes both
// -cache-load paths return an error instead of dereferencing it.
func TestLoadNullSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(`{"caches":[null]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := serve.NewCache(serve.CacheConfig{Platform: soc.Orin()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCache(path, cache); err == nil {
		t.Error("LoadCache accepted a null snapshot")
	}
	f, err := fleet.New(fleet.Config{Devices: []fleet.DeviceSpec{{Platform: "Orin"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFleetCaches(path, f); err == nil {
		t.Error("LoadFleetCaches accepted a null snapshot")
	}
}

// TestParseTenantShards: the tenant-pinning spec round-trips, rejects
// malformed entries, and treats empty input as "no pins".
func TestParseTenantShards(t *testing.T) {
	m, err := ParseTenantShards("cam-a=0, scorer-b=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["cam-a"] != 0 || m["scorer-b"] != 2 {
		t.Errorf("parsed %v", m)
	}
	if m, err := ParseTenantShards(""); err != nil || m != nil {
		t.Errorf("empty spec: m=%v err=%v", m, err)
	}
	for _, bad := range []string{"cam-a", "cam-a=x", "=1", "cam-a=-1", "cam-a=0,cam-a=1"} {
		if _, err := ParseTenantShards(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	// Re-pinning to the same shard is harmless, not a conflict.
	if _, err := ParseTenantShards("cam-a=1,cam-a=1"); err != nil {
		t.Errorf("idempotent pin rejected: %v", err)
	}
}

// TestParseDeviceShards: same contract for the device-pinning spec.
func TestParseDeviceShards(t *testing.T) {
	m, err := ParseDeviceShards("0=1,3=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0] != 1 || m[3] != 0 {
		t.Errorf("parsed %v", m)
	}
	if m, err := ParseDeviceShards(" "); err != nil || m != nil {
		t.Errorf("blank spec: m=%v err=%v", m, err)
	}
	for _, bad := range []string{"0", "a=0", "0=b", "-1=0", "0=-2", "0=0,0=1"} {
		if _, err := ParseDeviceShards(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
