package cliutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"haxconn/internal/fleet"
	"haxconn/internal/report"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
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

// TestWriteFileNamesPath: an artifact under a missing directory, and a
// writer that fails, return an error naming the artifact's path, through
// WriteFile and each writer built on it.
func TestWriteFileNamesPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "out")
	writers := map[string]func(path string) error{
		"WriteFile": func(path string) error {
			return WriteFile(path, func(io.Writer) error { return nil })
		},
		"WriteOutputs csv": func(path string) error {
			return WriteOutputs(path, "", func(io.Writer) error { return nil }, nil)
		},
		"WriteOutputs json": func(path string) error { return WriteOutputs("", path, nil, 1) },
		"SaveCaches":        func(path string) error { return SaveCaches(path) },
	}
	for name, write := range writers {
		if err := write(missing); err == nil || !strings.Contains(err.Error(), missing) {
			t.Errorf("%s under a missing directory: error = %v, want one naming %s", name, err, missing)
		}
	}
	path := filepath.Join(t.TempDir(), "out")
	boom := errors.New("boom")
	err := WriteFile(path, func(io.Writer) error { return boom })
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), path) {
		t.Errorf("failing writer: error = %v, want boom wrapped with %s", err, path)
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
		Devices: []fleet.DeviceSpec{{Platform: "Orin"}, {Platform: "Xavier"}},
		Device:  serve.Config{SolverTimeScale: 50},
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

// parseFlags registers flags on a fresh FlagSet and parses args.
func parseFlags(register func(*flag.FlagSet), args ...string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs)
	return fs.Parse(args)
}

// TestServingFlags: with no arguments the shared serving flags yield the
// template every serving command builds by default; each flag set to a
// non-default value lands in its own serve.Config field; the admission
// flags exist only when asked for; and an unknown objective or mix
// policy is a parse error.
func TestServingFlags(t *testing.T) {
	want := serve.Config{Objective: schedule.MinMaxLatency, MixPolicy: serve.MixFIFO, SolverTimeScale: 50}
	for _, admission := range []bool{true, false} {
		var cfg serve.Config
		if err := parseFlags(func(fs *flag.FlagSet) { ServingFlags(fs, &cfg, admission) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Errorf("admission %v: default template %+v, want %+v", admission, cfg, want)
		}
	}

	var cfg serve.Config
	err := parseFlags(func(fs *flag.FlagSet) { ServingFlags(fs, &cfg, true) },
		"-objective", "fps", "-mix", "contention-aware", "-mixbeam", "8", "-maxwait", "6",
		"-scale", "2.5", "-adaptivewait", "-maxbatch", "3", "-maxqueue", "7", "-admitslo", "1.5")
	if err != nil {
		t.Fatal(err)
	}
	want = serve.Config{
		Objective:       schedule.MaxThroughput,
		MixPolicy:       serve.MixContentionAware,
		ScoreBeam:       8,
		MaxWaitRounds:   6,
		SolverTimeScale: 2.5,
		AdaptiveMaxWait: true,
		MaxBatch:        3,
		MaxQueue:        7,
		AdmitSLOFactor:  1.5,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("bound template %+v, want %+v", cfg, want)
	}

	for _, args := range [][]string{
		{"-maxbatch", "3"}, // admission flags not registered
		{"-objective", "throughput"},
		{"-mix", "lifo"},
	} {
		var cfg serve.Config
		if err := parseFlags(func(fs *flag.FlagSet) { ServingFlags(fs, &cfg, false) }, args...); err == nil {
			t.Errorf("%v parsed", args)
		}
	}
}

// TestShardFlags: the shard flags default to a one-shard plane, land in
// their shard.Config fields — pinning specs parsed into maps — and a
// malformed pinning spec is a parse error.
func TestShardFlags(t *testing.T) {
	var cfg shard.Config
	if err := parseFlags(func(fs *flag.FlagSet) { ShardFlags(fs, &cfg) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, shard.Config{Shards: 1}) {
		t.Errorf("default plane %+v, want one shard and nothing else", cfg)
	}

	cfg = shard.Config{}
	err := parseFlags(func(fs *flag.FlagSet) { ShardFlags(fs, &cfg) },
		"-shards", "4", "-gossip-every", "2", "-no-gossip", "-no-handoff", "-handoff-backlog", "10",
		"-handoff-cooldown", "3", "-tenant-shards", "cam-a=0,scorer-b=2", "-device-shards", "0=1,3=0")
	if err != nil {
		t.Fatal(err)
	}
	want := shard.Config{
		Shards:                4,
		GossipEveryTicks:      2,
		NoGossip:              true,
		NoHandoff:             true,
		HandoffBacklogMs:      10,
		HandoffCooldownRounds: 3,
		TenantShard:           map[string]int{"cam-a": 0, "scorer-b": 2},
		DeviceShard:           map[int]int{0: 1, 3: 0},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("bound plane %+v, want %+v", cfg, want)
	}

	for _, args := range [][]string{{"-tenant-shards", "cam-a"}, {"-device-shards", "x=1"}} {
		var cfg shard.Config
		if err := parseFlags(func(fs *flag.FlagSet) { ShardFlags(fs, &cfg) }, args...); err == nil {
			t.Errorf("%v parsed", args)
		}
	}
}
