package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"haxconn/internal/sim"
	"haxconn/internal/soc"
)

func TestWriteProducesValidTrace(t *testing.T) {
	p := soc.Orin()
	w := sim.Workload{Streams: []sim.Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []sim.Task{{Accel: 0, BaseMs: 2, DemandGBps: 50, MemIntensity: 0.5}}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []sim.Task{{Accel: 1, BaseMs: 3, DemandGBps: 40, MemIntensity: 0.5}}},
	}}
	res, err := sim.Run(p, w, sim.GroundTruth{SatBW: p.SatBW()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p, res); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var tasks, counters, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			tasks++
			if e["dur"].(float64) <= 0 {
				t.Error("task event without duration")
			}
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if tasks != 2 {
		t.Errorf("task events = %d, want 2", tasks)
	}
	if counters < 2 {
		t.Errorf("counter samples = %d, want >= 2", counters)
	}
	if meta < len(p.Accels) {
		t.Errorf("metadata events = %d", meta)
	}
	if !strings.Contains(buf.String(), "EMC demand") {
		t.Error("missing EMC counter track")
	}
}

func TestWriteNilResult(t *testing.T) {
	if err := Write(&bytes.Buffer{}, soc.Orin(), nil); err == nil {
		t.Error("nil result should fail")
	}
}
