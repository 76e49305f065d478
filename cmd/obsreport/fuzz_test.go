package main

import (
	"bytes"
	"io"
	"math"
	"testing"
)

// FuzzAnalyze drives hostile trace and metrics bytes through ingest,
// Analyze and the -require count. Each input either fails with an error
// or gives a report whose class counts sum to its violations, whose
// utilization timeline stays within maxUtilWindows, and which renders in
// text, CSV and JSON; nothing panics or allocates past that bound.
func FuzzAnalyze(f *testing.F) {
	span := func(at, dur string) []byte {
		return []byte(`{"at_ms":` + at + `,"dur_ms":` + dur + `,"kind":"dispatch","device":"D","request":-1}`)
	}
	metrics := []byte(`{"name":"shard.count","value":4}`)
	f.Add(span("0", "1e12"), metrics, false, 100.0)
	f.Add(span("-1e9", "1e9"), metrics, false, 100.0)
	f.Add(span("0", "5"), metrics, false, 1e-9)
	f.Add(span("0", "5"), metrics, false, math.NaN())
	f.Add(span("570", "5"), metrics, false, 13.3)
	// One line of each CI demo's trace: serve compare, serve mixed demand,
	// fleet, control and the sharded plane.
	for _, line := range []string{
		`{"at_ms":1.867195925626036,"dur_ms":2.056269691514964,"kind":"dispatch","device":"Orin/contention-aware","request":-1,"detail":"VGG19|MinLatency","value":1}`,
		`{"at_ms":1.867195925626036,"kind":"audit","device":"Orin","tenant":"alice","network":"VGG19","request":0,"detail":"VGG19|MinLatency","value":-0.09852437934469993,"metrics":{"actual_lat_ms":2.056269691514964,"predicted_lat_ms":1.957745312170264,"queue_wait_ms":0,"slo_ms":10}}` + "\n" +
			`{"at_ms":123.6823410239029,"kind":"violate","device":"Orin","tenant":"alice","network":"VGG19","request":0,"value":0.9931732916613498}`,
		`{"at_ms":1.867195925626036,"kind":"place","device":"Orin/0","tenant":"alice","network":"VGG19","request":0,"detail":"mix-aware"}`,
		`{"at_ms":750,"kind":"audit","request":-1,"detail":"scale-lag","value":5,"metrics":{"clear_ms":750,"lag_ticks":5,"trip_ms":625}}`,
		`{"at_ms":100,"kind":"gossip","request":-1,"detail":"s0 round 1","value":2,"metrics":{"assists":0,"backlog_ms":0,"round":1,"rx_entries":2,"shard":0,"tx_entries":0}}`,
	} {
		f.Add([]byte(line), metrics, false, 100.0)
	}
	f.Add([]byte(`{"kind":"arrive","request":1}`), []byte("name,value\nserve.requests,3\n"), true, 100.0)
	// Sums past the float64 range: a calibration aggregate and a
	// utilization window.
	f.Add([]byte(`{"at_ms":1,"kind":"audit","request":-1,"detail":"VGG19|MinLatency","metrics":{"predicted_ms":1e308,"actual_ms":1}}`+"\n"+
		`{"at_ms":2,"kind":"audit","request":-1,"detail":"VGG19|MinLatency","metrics":{"predicted_ms":1e308,"actual_ms":1}}`), metrics, false, 100.0)
	f.Add(span("0", "1e308"), metrics, false, 1e308)

	required := requiredKinds("serve")
	f.Fuzz(func(t *testing.T, trace, metrics []byte, csvMetrics bool, windowMs float64) {
		events, err := parseEvents(bytes.NewReader(trace))
		if err != nil {
			return
		}
		if _, err := parseMetrics(bytes.NewReader(metrics), csvMetrics); err != nil {
			return
		}
		rep, err := Analyze(events, windowMs)
		if err != nil {
			return
		}
		sum := 0
		for _, n := range rep.Classes {
			sum += n
		}
		if sum != rep.Violations || len(rep.Rows) != rep.Violations {
			t.Fatalf("classes sum to %d over %d rows, violations %d", sum, len(rep.Rows), rep.Violations)
		}
		if len(rep.Utilization) > maxUtilWindows {
			t.Fatalf("%d utilization rows, bound %d", len(rep.Utilization), maxUtilWindows)
		}
		for _, format := range []string{"text", "csv", "json"} {
			if err := writeReport(io.Discard, format, rep); err != nil {
				t.Fatalf("%s render: %v", format, err)
			}
		}
		counts := countKinds(events)
		complete := true
		for _, kind := range required {
			complete = complete && counts[kind] > 0
		}
		if err := checkKinds(counts, required); (err == nil) != complete {
			t.Fatalf("checkKinds = %v with every required kind present = %v", err, complete)
		}
	})
}
