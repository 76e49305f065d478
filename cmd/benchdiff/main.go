// Command benchdiff compares two benchmark-artifact JSON files (the
// BENCH_*.json format written by the repo's bench harness: a note plus
// benchmark -> metric -> value) and exits non-zero when any shared metric
// drifts beyond the relative tolerance. The serving, fleet and control
// benchmarks derive their metrics from virtual time, so on the same code
// they reproduce exactly — any drift is a behavior change, and the
// tolerance only absorbs intentional incremental tuning.
//
// Usage:
//
//	benchdiff -baseline BENCH_fleet.json -current /tmp/BENCH_fleet.json [-tolerance 0.25]
//
// Metrics present on only one side are reported but do not fail the
// check (new benchmarks appear, old ones retire); value drifts do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type artifact struct {
	Note       string                        `json:"note"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline JSON (required)")
		currentPath  = flag.String("current", "", "freshly generated JSON (required)")
		tolerance    = flag.Float64("tolerance", 0.25, "maximum relative drift per metric")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fatalf("%v", err)
	}

	// Metrics on only one side are informational: new benchmarks appear
	// and old ones retire without failing the gate.
	for _, bench := range sortedKeys(cur.Benchmarks) {
		bm, ok := base.Benchmarks[bench]
		if !ok {
			fmt.Printf("NEW      %s: benchmark absent from baseline\n", bench)
			continue
		}
		for _, metric := range sortedKeys(cur.Benchmarks[bench]) {
			if _, ok := bm[metric]; !ok {
				fmt.Printf("NEW      %s/%s: metric absent from baseline\n", bench, metric)
			}
		}
	}
	failures := 0
	for _, bench := range sortedKeys(base.Benchmarks) {
		bm := base.Benchmarks[bench]
		cm, ok := cur.Benchmarks[bench]
		if !ok {
			fmt.Printf("MISSING  %s: benchmark absent from current run\n", bench)
			continue
		}
		for _, metric := range sortedKeys(bm) {
			bv := bm[metric]
			cv, ok := cm[metric]
			if !ok {
				fmt.Printf("MISSING  %s/%s: metric absent from current run\n", bench, metric)
				continue
			}
			drift := relDrift(bv, cv)
			status := "ok"
			if drift > *tolerance {
				status = "FAIL"
				failures++
			}
			fmt.Printf("%-8s %s/%s: baseline %.4f, current %.4f (drift %.1f%%, tol %.0f%%)\n",
				status, bench, metric, bv, cv, 100*drift, 100**tolerance)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) drifted beyond %.0f%%\n", failures, 100**tolerance)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all shared metrics within %.0f%%\n", 100**tolerance)
}

// relDrift is |cur-base| relative to the baseline magnitude; a zero
// baseline compares absolutely against the tolerance.
func relDrift(base, cur float64) float64 {
	if base == 0 {
		return math.Abs(cur)
	}
	return math.Abs(cur-base) / math.Abs(base)
}

func load(path string) (*artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(a.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s holds no benchmarks", path)
	}
	return &a, nil
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
