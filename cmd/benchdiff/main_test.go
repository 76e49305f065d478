package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompare: a drift within tolerance passes and one beyond it fails; a
// zero baseline compares absolutely; a metric only the current run has
// passes, and a baseline metric or benchmark the current run lacks fails.
func TestCompare(t *testing.T) {
	bench := func(metrics map[string]float64) *artifact {
		return &artifact{Benchmarks: map[string]map[string]float64{"A": metrics}}
	}
	cases := []struct {
		name      string
		base, cur *artifact
		tolerance float64
		failures  int
		line      string
	}{
		{"within tolerance", bench(map[string]float64{"y": 100}), bench(map[string]float64{"y": 120}), 0.25, 0, "ok       A/y"},
		{"beyond tolerance", bench(map[string]float64{"y": 100}), bench(map[string]float64{"y": 130}), 0.25, 1, "FAIL     A/y"},
		{"zero baseline within", bench(map[string]float64{"y": 0}), bench(map[string]float64{"y": 0.2}), 0.25, 0, "ok       A/y"},
		{"zero baseline beyond", bench(map[string]float64{"y": 0}), bench(map[string]float64{"y": 0.3}), 0.25, 1, "FAIL     A/y"},
		{"new metric", bench(map[string]float64{"y": 1}), bench(map[string]float64{"y": 1, "z": 5}), 0.25, 0, "NEW      A/z"},
		{"missing metric", bench(map[string]float64{"y": 1, "z": 5}), bench(map[string]float64{"y": 1}), 0.25, 1, "MISSING  A/z"},
		{"missing benchmark",
			&artifact{Benchmarks: map[string]map[string]float64{"A": {"y": 1}, "B": {"x": 1}}},
			bench(map[string]float64{"y": 1}), 0.25, 1, "MISSING  B:"},
		// CI's gate: virtual-time metrics reproduce exactly, so an equal
		// value passes at tolerance 0 and the smallest drift fails.
		{"exact at zero tolerance", bench(map[string]float64{"y": 61.2539, "z": 0}),
			bench(map[string]float64{"y": 61.2539, "z": 0}), 0, 0, "ok       A/y"},
		{"any drift at zero tolerance", bench(map[string]float64{"y": 61.2539}),
			bench(map[string]float64{"y": 61.1375}), 0, 1, "FAIL     A/y"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := compare(&out, tc.base, tc.cur, tc.tolerance); got != tc.failures {
				t.Errorf("failures = %d, want %d\n%s", got, tc.failures, out.String())
			}
			if !strings.Contains(out.String(), tc.line) {
				t.Errorf("output lacks %q:\n%s", tc.line, out.String())
			}
		})
	}
}
