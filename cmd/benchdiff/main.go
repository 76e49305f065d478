// Command benchdiff compares two benchmark-artifact JSON files (the
// BENCH_*.json format written by the repo's bench harness: a note plus
// benchmark -> metric -> value) and exits non-zero when any shared metric
// drifts beyond the relative tolerance. The serving, fleet and control
// benchmarks derive their metrics from virtual time, so on the same code
// they reproduce byte for byte: CI compares them at -tolerance 0, where
// any drift at all is a behavior change. A change meant to move a metric
// commits the regenerated baseline.
//
// Usage:
//
//	benchdiff -baseline BENCH_fleet.json -current /tmp/BENCH_fleet.json [-tolerance 0]
//
// A baseline benchmark or metric absent from the current run fails the
// check like a drift does, so a renamed benchmark or a -bench pattern that
// stops matching cannot silently drop a gate; a change that retires a
// metric commits the regenerated baseline. A benchmark or metric only the
// current run has is reported and passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

	if failures := compare(os.Stdout, base, cur, *tolerance); failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) missing or drifted beyond %.0f%%\n", failures, 100**tolerance)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all baseline metrics present and within %.0f%%\n", 100**tolerance)
}

// compare reports every metric of both artifacts on w and returns the
// failures: a baseline benchmark or metric missing from the current run,
// or a shared metric drifting beyond tolerance.
func compare(w io.Writer, base, cur *artifact, tolerance float64) int {
	for _, bench := range sortedKeys(cur.Benchmarks) {
		bm, ok := base.Benchmarks[bench]
		if !ok {
			fmt.Fprintf(w, "NEW      %s: benchmark absent from baseline\n", bench)
			continue
		}
		for _, metric := range sortedKeys(cur.Benchmarks[bench]) {
			if _, ok := bm[metric]; !ok {
				fmt.Fprintf(w, "NEW      %s/%s: metric absent from baseline\n", bench, metric)
			}
		}
	}
	failures := 0
	for _, bench := range sortedKeys(base.Benchmarks) {
		bm := base.Benchmarks[bench]
		cm, ok := cur.Benchmarks[bench]
		if !ok {
			fmt.Fprintf(w, "MISSING  %s: benchmark absent from current run\n", bench)
			failures++
			continue
		}
		for _, metric := range sortedKeys(bm) {
			bv := bm[metric]
			cv, ok := cm[metric]
			if !ok {
				fmt.Fprintf(w, "MISSING  %s/%s: metric absent from current run\n", bench, metric)
				failures++
				continue
			}
			drift := relDrift(bv, cv)
			status := "ok"
			if drift > tolerance {
				status = "FAIL"
				failures++
			}
			fmt.Fprintf(w, "%-8s %s/%s: baseline %.4f, current %.4f (drift %.1f%%, tol %.0f%%)\n",
				status, bench, metric, bv, cv, 100*drift, 100*tolerance)
		}
	}
	return failures
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
