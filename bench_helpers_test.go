package haxconn

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchRecords collects the metrics of every regression benchmark that
// ran, keyed by the artifact file it belongs to (see bench_fleet_test.go
// and bench_control_test.go); TestMain serializes each populated artifact
// so perf runs leave diffable files next to the committed baselines.
var benchRecords = map[string]map[string]map[string]float64{}

// Perf-trajectory artifacts at the repo root, with their regeneration
// notes.
const (
	benchFleetJSON   = "BENCH_fleet.json"
	benchControlJSON = "BENCH_control.json"
	benchServeJSON   = "BENCH_serve.json"
)

var benchNotes = map[string]string{
	benchFleetJSON:   "regression baseline for solver incumbent quality and fleet throughput; regenerate with: go test -bench 'Fleet|IncumbentQuality' -benchtime=1x .",
	benchControlJSON: "regression baseline for the control plane: controlled-vs-static p99, violations and device-time on the bursty trace, plus the sharded-vs-global region-scale leg (K=4 shard plane vs one controller); every metric is virtual-time deterministic; regenerate with: go test -bench 'Control|Sharded' -benchtime=1x .",
	benchServeJSON:   "regression baseline for the dispatch path: fifo vs demand-balance vs contention-aware mix forming on the mixed-demand trace; regenerate with: go test -bench ServeMix -benchtime=1x .",
}

// reportAndRecord reports each metric on the benchmark result line and
// stages it for BENCH_fleet.json.
func reportAndRecord(b *testing.B, name string, metrics map[string]float64) {
	reportAndRecordTo(b, benchFleetJSON, name, metrics)
}

// reportAndRecordControl stages metrics for BENCH_control.json.
func reportAndRecordControl(b *testing.B, name string, metrics map[string]float64) {
	reportAndRecordTo(b, benchControlJSON, name, metrics)
}

// reportAndRecordServe stages metrics for BENCH_serve.json.
func reportAndRecordServe(b *testing.B, name string, metrics map[string]float64) {
	reportAndRecordTo(b, benchServeJSON, name, metrics)
}

func reportAndRecordTo(b *testing.B, path, name string, metrics map[string]float64) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(metrics[k], k)
	}
	if benchRecords[path] == nil {
		benchRecords[path] = map[string]map[string]float64{}
	}
	benchRecords[path][name] = metrics
}

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		for path, records := range benchRecords {
			if len(records) == 0 {
				continue
			}
			if err := writeBenchJSON(path, records); err != nil {
				os.Stderr.WriteString("writing " + path + ": " + err.Error() + "\n")
				code = 1
			}
		}
	}
	os.Exit(code)
}

func writeBenchJSON(path string, records map[string]map[string]float64) error {
	out := struct {
		Note       string                        `json:"note"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}{
		Note:       benchNotes[path],
		Benchmarks: records,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
