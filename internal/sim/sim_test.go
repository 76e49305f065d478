package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"haxconn/internal/contention"
	"haxconn/internal/soc"
)

func plat() *soc.Platform { return soc.Orin() }

func gt(p *soc.Platform) Arbiter { return GroundTruth{SatBW: p.SatBW()} }

func TestSingleStreamSerial(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{{
		Name:   "a",
		Labels: []string{"t0", "t1"},
		Tasks: []Task{
			{Accel: 0, BaseMs: 2, DemandGBps: 10, MemIntensity: 0.5},
			{Accel: 0, BaseMs: 3, DemandGBps: 10, MemIntensity: 0.5},
		},
	}}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 5, 1e-9) {
		t.Errorf("makespan %g, want 5 (no contention, serial)", r.MakespanMs)
	}
	if len(r.Records) != 2 {
		t.Fatalf("got %d records", len(r.Records))
	}
	if !near(r.Records[0].EndMs, 2, 1e-9) || !near(r.Records[1].StartMs, 2, 1e-9) {
		t.Error("tasks must run back to back")
	}
	if r.Records[0].Label != "t0" || r.Records[1].Label != "t1" || r.Intervals[1].Active[0] != "t1" {
		t.Errorf("labels %q, %q and interval %v, want the stream's Labels", r.Records[0].Label, r.Records[1].Label, r.Intervals[1].Active)
	}
	if !near(r.StreamLatencyMs(0), 5, 1e-9) {
		t.Errorf("stream latency %g", r.StreamLatencyMs(0))
	}
}

func TestParallelNoContention(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: 4, DemandGBps: 10, MemIntensity: 1}}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 1, BaseMs: 4, DemandGBps: 10, MemIntensity: 1}}},
	}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 4, 1e-9) {
		t.Errorf("makespan %g, want 4 (demand below saturation)", r.MakespanMs)
	}
}

func TestParallelWithContention(t *testing.T) {
	p := plat()
	sat := p.SatBW()
	// Two tasks each demanding 80% of saturation bandwidth, fully memory
	// bound: each receives half, so both slow down by 1.6x.
	d := 0.8 * sat
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: 10, DemandGBps: d, MemIntensity: 1}}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 1, BaseMs: 10, DemandGBps: d, MemIntensity: 1}}},
	}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 16, 1e-6) {
		t.Errorf("makespan %g, want 16 (1.6x slowdown)", r.MakespanMs)
	}
	for _, rec := range r.Records {
		if !near(rec.Slowdown, 1.6, 1e-6) {
			t.Errorf("%s slowdown %g, want 1.6", rec.Label, rec.Slowdown)
		}
	}
}

func TestContentionIntervalNonUniform(t *testing.T) {
	p := plat()
	sat := p.SatBW()
	// Stream b finishes earlier; after it ends, stream a speeds back up —
	// non-uniform slowdown across contention intervals (Fig. 4).
	d := 0.75 * sat
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: 10, DemandGBps: d, MemIntensity: 1}}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 1, BaseMs: 2, DemandGBps: d, MemIntensity: 1}}},
	}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	// b slows by 1.5 (each gets sat/2, demand 0.75 sat): ends at 3ms.
	// a has then done 2ms of work; remaining 8ms runs uncontended: ends 11.
	if !near(r.MakespanMs, 11, 1e-6) {
		t.Errorf("makespan %g, want 11", r.MakespanMs)
	}
	if len(r.Intervals) != 2 {
		t.Fatalf("got %d intervals, want 2", len(r.Intervals))
	}
	if len(r.Intervals[0].Active) != 2 || len(r.Intervals[1].Active) != 1 {
		t.Errorf("interval active sets: %v / %v", r.Intervals[0].Active, r.Intervals[1].Active)
	}
}

func TestSameAcceleratorSerializes(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: 5, DemandGBps: 1, MemIntensity: 0}}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 0, BaseMs: 5, DemandGBps: 1, MemIntensity: 0}}},
	}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 10, 1e-9) {
		t.Errorf("makespan %g, want 10 (serialized on one accelerator)", r.MakespanMs)
	}
}

func TestPipelineDependency(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{
		{Name: "det", Labels: []string{"d0"}, Tasks: []Task{{Accel: 0, BaseMs: 3, DemandGBps: 1, MemIntensity: 0}}},
		{Name: "track", After: []int{0}, Labels: []string{"t0"}, Tasks: []Task{{Accel: 1, BaseMs: 4, DemandGBps: 1, MemIntensity: 0}}},
	}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 7, 1e-9) {
		t.Errorf("makespan %g, want 7 (pipeline)", r.MakespanMs)
	}
	if !near(r.StreamStartMs[1], 3, 1e-9) {
		t.Errorf("dependent stream started at %g, want 3", r.StreamStartMs[1])
	}
}

func TestBackgroundDemandSlowsTasks(t *testing.T) {
	p := plat()
	sat := p.SatBW()
	w := Workload{
		Streams: []Stream{{Name: "a", Labels: []string{"a0"}, Tasks: []Task{
			{Accel: 0, BaseMs: 10, DemandGBps: 0.9 * sat, MemIntensity: 1},
		}}},
		Background: []Background{{Label: "solver", DemandGBps: 0.2 * sat}},
	}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if r.MakespanMs <= 10 {
		t.Errorf("makespan %g, want > 10 under background demand", r.MakespanMs)
	}
	if r.MakespanMs > 10*1.3 {
		t.Errorf("makespan %g implausibly slow for a small background load", r.MakespanMs)
	}
}

func TestModelArbiterMatchesOracleGroundTruth(t *testing.T) {
	p := plat()
	d := 0.8 * p.SatBW()
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: 10, DemandGBps: d, MemIntensity: 1}}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 1, BaseMs: 10, DemandGBps: d, MemIntensity: 1}}},
	}}
	rg, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(p, w, ModelArbiter{Model: contention.Oracle{SatBW: p.SatBW()}})
	if err != nil {
		t.Fatal(err)
	}
	if !near(rg.MakespanMs, rm.MakespanMs, 1e-6) {
		t.Errorf("ground truth %g vs oracle-model %g", rg.MakespanMs, rm.MakespanMs)
	}
}

func TestValidation(t *testing.T) {
	p := plat()
	cases := []Workload{
		{}, // empty
		{Streams: []Stream{{Name: "a", Tasks: []Task{{Accel: 99, BaseMs: 1}}}}},
		{Streams: []Stream{{Name: "a", Tasks: []Task{{Accel: 0, BaseMs: -1}}}}},
		{Streams: []Stream{{Name: "a", After: []int{0}, Tasks: []Task{{Accel: 0, BaseMs: 1}}}}},
		{Streams: []Stream{{Name: "a", After: []int{5}, Tasks: []Task{{Accel: 0, BaseMs: 1}}}}},
		{Streams: []Stream{ // 2-cycle
			{Name: "a", After: []int{1}, Tasks: []Task{{Accel: 0, BaseMs: 1}}},
			{Name: "b", After: []int{0}, Tasks: []Task{{Accel: 1, BaseMs: 1}}},
		}},
		{Streams: []Stream{{Name: "a", Tasks: []Task{{Accel: 0, BaseMs: 1, MemIntensity: 2}}}}},
	}
	for i, w := range cases {
		if _, err := Run(p, w, gt(p)); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// Non-finite task parameters and negative or non-finite background demands
// are invalid input, not arbiter failures, and must never run silently.
func TestValidationRejectsNonFinite(t *testing.T) {
	p := plat()
	task := func(base, demand, mu float64) Workload {
		return Workload{Streams: []Stream{{Name: "a", Labels: []string{"a0"}, Tasks: []Task{
			{Accel: 0, BaseMs: base, DemandGBps: demand, MemIntensity: mu},
		}}}}
	}
	background := func(demand float64) Workload {
		w := task(2, 50, 0.5)
		w.Background = []Background{{Label: "solver", DemandGBps: demand}}
		return w
	}
	nan := math.NaN()
	cases := map[string]Workload{
		"NaN MemIntensity":      task(2, 50, nan),
		"negative background":   background(-500),
		"NaN background":        background(nan),
		"NaN BaseMs":            task(nan, 50, 0.5),
		"+Inf BaseMs":           task(math.Inf(1), 50, 0.5),
		"NaN DemandGBps":        task(2, nan, 0.5),
		"+Inf DemandGBps":       task(2, math.Inf(1), 0.5),
		"+Inf background":       background(math.Inf(1)),
		"negative MemIntensity": task(2, 50, -0.1),
	}
	for name, w := range cases {
		_, err := Run(p, w, gt(p))
		if err == nil || !strings.Contains(err.Error(), "invalid parameters") {
			t.Errorf("%s: got error %v, want an invalid-parameters error", name, err)
		}
	}
}

// One Engine reused across workloads whose stream and accelerator counts
// grow and shrink — including after a failed run — must reproduce Run's
// makespan and stream ends bit for bit every time.
func TestEngineReuseMatchesRun(t *testing.T) {
	platform := func(n int) *soc.Platform {
		p := soc.Orin()
		for len(p.Accels) < n {
			p.Accels = append(p.Accels, p.Accels[len(p.Accels)%3])
		}
		p.Accels = p.Accels[:n]
		return p
	}
	rng := rand.New(rand.NewSource(7))
	workload := func(streams, accels int) Workload {
		var w Workload
		for s := 0; s < streams; s++ {
			st := Stream{Name: fmt.Sprintf("s%d", s)}
			if s > 0 && rng.Intn(3) == 0 {
				st.After = []int{rng.Intn(s)}
			}
			for k := rng.Intn(6); k > 0; k-- {
				st.Tasks = append(st.Tasks, Task{
					Accel:        rng.Intn(accels),
					BaseMs:       float64(rng.Intn(4)) * rng.Float64(),
					DemandGBps:   150 * rng.Float64(),
					MemIntensity: rng.Float64(),
				})
			}
			w.Streams = append(w.Streams, st)
		}
		if rng.Intn(2) == 0 {
			w.Background = []Background{{Label: "bg", DemandGBps: 40 * rng.Float64()}}
		}
		return w
	}
	pccs, err := contention.FitPCCS(plat().SatBW(), 16)
	if err != nil {
		t.Fatal(err)
	}
	var e Engine
	failed := 0
	for round, shape := range [][2]int{{1, 3}, {4, 5}, {2, 2}, {7, 5}, {1, 1}, {3, 3}, {6, 2}, {2, 4}} {
		p := platform(shape[1])
		w := workload(shape[0], shape[1])
		for _, arb := range []Arbiter{gt(p), ModelArbiter{Model: pccs}} {
			want, err := Run(p, w, arb)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			got, err := e.RunUntimed(p, w, arb)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if math.Float64bits(got.MakespanMs) != math.Float64bits(want.MakespanMs) {
				t.Errorf("round %d (%d streams, %d accelerators): reused engine %v, Run %v", round, shape[0], shape[1], got.MakespanMs, want.MakespanMs)
			}
			for s := range want.StreamEndMs {
				if math.Float64bits(got.StreamEndMs[s]) != math.Float64bits(want.StreamEndMs[s]) {
					t.Errorf("round %d stream %d: reused engine ends at %v, Run at %v", round, s, got.StreamEndMs[s], want.StreamEndMs[s])
				}
			}
		}
		// A run that fails mid-simulation leaves state the next run must
		// not see.
		if _, err := e.RunUntimed(p, w, brokenArbiter{}); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no round failed mid-simulation; the reuse-after-error path went untested")
	}
}

func TestZeroDurationTasks(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{{Name: "a", Labels: []string{"z", "t"}, Tasks: []Task{
		{Accel: 0, BaseMs: 0},
		{Accel: 0, BaseMs: 1, DemandGBps: 1, MemIntensity: 0},
	}}}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 1, 1e-9) {
		t.Errorf("makespan %g, want 1", r.MakespanMs)
	}
}

func TestEmptyStreamCompletesAndUnblocks(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{
		{Name: "empty"},
		{Name: "b", After: []int{0}, Labels: []string{"b0"}, Tasks: []Task{{Accel: 0, BaseMs: 2, DemandGBps: 1, MemIntensity: 0}}},
	}}
	r, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if !near(r.MakespanMs, 2, 1e-9) {
		t.Errorf("makespan %g, want 2", r.MakespanMs)
	}
}

func TestFPS(t *testing.T) {
	r := &Result{MakespanMs: 20}
	if got := r.FPS(2); !near(got, 100, 1e-9) {
		t.Errorf("FPS = %g, want 100", got)
	}
	empty := &Result{}
	if empty.FPS(1) != 0 {
		t.Error("zero makespan should yield 0 FPS")
	}
}

// Property: with contention the makespan never beats the contention-free
// critical path, and without memory intensity it matches it exactly for
// single-task streams on distinct accelerators.
func TestMakespanBounds(t *testing.T) {
	p := plat()
	f := func(aMs, bMs uint16, aD, bD uint16) bool {
		a := float64(aMs%100) / 7
		b := float64(bMs%100) / 7
		w := Workload{Streams: []Stream{
			{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: a, DemandGBps: float64(aD % 300), MemIntensity: 1}}},
			{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 1, BaseMs: b, DemandGBps: float64(bD % 300), MemIntensity: 1}}},
		}}
		r, err := Run(p, w, gt(p))
		if err != nil {
			return false
		}
		return r.MakespanMs >= math.Max(a, b)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// brokenArbiter starves every task — the simulator must fail loudly
// instead of spinning.
type brokenArbiter struct{}

func (brokenArbiter) Slowdowns(_, _, out []float64) {
	for i := range out {
		out[i] = math.Inf(1)
	}
}

func TestBrokenArbiterFailsLoudly(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: 1, DemandGBps: 10, MemIntensity: 1}}},
	}}
	if _, err := Run(p, w, brokenArbiter{}); err == nil {
		t.Fatal("expected an error when no task can progress")
	}
}

// Property: simulation is deterministic — identical inputs yield identical
// timelines.
func TestDeterminism(t *testing.T) {
	p := plat()
	w := Workload{Streams: []Stream{
		{Name: "a", Labels: []string{"a0", "a1"}, Tasks: []Task{
			{Accel: 0, BaseMs: 3, DemandGBps: 90, MemIntensity: 0.9},
			{Accel: 1, BaseMs: 2, DemandGBps: 50, MemIntensity: 0.7},
		}},
		{Name: "b", Labels: []string{"b0"}, Tasks: []Task{
			{Accel: 1, BaseMs: 4, DemandGBps: 70, MemIntensity: 0.8},
		}},
	}}
	r1, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p, w, gt(p))
	if err != nil {
		t.Fatal(err)
	}
	if r1.MakespanMs != r2.MakespanMs || len(r1.Records) != len(r2.Records) {
		t.Fatal("simulation is not deterministic")
	}
	for i := range r1.Records {
		if r1.Records[i] != r2.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// Property: busy time per accelerator never exceeds the makespan, and the
// sum of interval durations equals the makespan.
func TestAccountingInvariants(t *testing.T) {
	p := plat()
	f := func(a, b, c uint8) bool {
		w := Workload{Streams: []Stream{
			{Name: "a", Labels: []string{"a0"}, Tasks: []Task{{Accel: 0, BaseMs: float64(a%50) + 1, DemandGBps: float64(b % 200), MemIntensity: 1}}},
			{Name: "b", Labels: []string{"b0"}, Tasks: []Task{{Accel: 1, BaseMs: float64(c%50) + 1, DemandGBps: float64(a % 200), MemIntensity: 1}}},
		}}
		r, err := Run(p, w, gt(p))
		if err != nil {
			return false
		}
		for _, busy := range r.BusyMs {
			if busy > r.MakespanMs+1e-9 {
				return false
			}
		}
		var ivSum float64
		for _, iv := range r.Intervals {
			ivSum += iv.EndMs - iv.StartMs
		}
		return math.Abs(ivSum-r.MakespanMs) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
