package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"haxconn/internal/experiments"
	"haxconn/internal/shard"
)

// replay sets a workload up and runs one plain pass over each input,
// returning each pass's digest and counts, the simulated metrics and the
// number of failed checks.
func replay(t *testing.T, w workload, seed int64) (digests []string, counts [][3]int, simm map[string]float64) {
	t.Helper()
	b, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.inputs(); i++ {
		out, err := b.pass(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		out.input = i
		if n := b.check(out); n != 0 || out.failed != 0 {
			t.Fatalf("input %d: %d requests failed a check, %d failed in the pass", i, n, out.failed)
		}
		digests = append(digests, out.digest)
		counts = append(counts, [3]int{out.requests, out.failed, out.rounds})
	}
	if n := b.finish(); n != 0 {
		t.Fatalf("%d once-per-run checks failed", n)
	}
	return digests, counts, b.sim()
}

// TestDeterminism runs every workload twice on one seed: the outputs, the
// counts and the simulated metrics must be identical.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			d1, c1, s1 := replay(t, w, 7)
			d2, c2, s2 := replay(t, w, 7)
			if !reflect.DeepEqual(d1, d2) {
				t.Errorf("output digests differ between runs:\n%v\n%v", d1, d2)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Errorf("counts differ between runs: %v vs %v", c1, c2)
			}
			if !reflect.DeepEqual(s1, s2) {
				t.Errorf("simulated metrics differ between runs: %v vs %v", s1, s2)
			}
		})
	}
}

// TestTracedPassReproduces requires the decomposed, timed calls of a
// traced pass, and an observed pass, to reproduce the plain pass's outputs
// exactly.
func TestTracedPassReproduces(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(3)
			if err != nil {
				t.Fatal(err)
			}
			kinds := []passKind{plainPass, tracedPass}
			if _, ok := b.(observer); ok {
				kinds = append(kinds, observedPass)
			}
			var digests []string
			for _, kind := range kinds {
				s, err := measure(b, 0, kind, newProbe())
				if err != nil {
					t.Fatal(err)
				}
				if n := b.check(s.out); n != 0 {
					t.Fatalf("%d requests failed a check", n)
				}
				digests = append(digests, s.out.digest)
			}
			for i := 1; i < len(digests); i++ {
				if digests[i] != digests[0] {
					t.Errorf("pass kind %d differs from the plain pass", kinds[i])
				}
			}
		})
	}
}

// TestSeedChangesInputs requires the seed to reach the generated traces.
func TestSeedChangesInputs(t *testing.T) {
	a, err := quartetTrace(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := quartetTrace(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("serve-quartet's trace does not change with the seed")
	}
	ra, err := shard.DemoRegionTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := shard.DemoRegionTrace(2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ra, rb) {
		t.Error("region-k4's trace does not change with the seed")
	}
}

// TestPaperProblemsMatchTables requires plan-paper's problem set to be the
// paper's evaluation set: Table 6's experiments and Table 8's pairs with
// the iteration counts experiments.Table8 balances them with.
func TestPaperProblemsMatchTables(t *testing.T) {
	probs, err := paperProblems()
	if err != nil {
		t.Fatal(err)
	}
	t6 := experiments.Table6Defs()
	cells, err := experiments.Table8()
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != len(t6)+len(cells) {
		t.Fatalf("%d problems, want %d", len(probs), len(t6)+len(cells))
	}
	for i, c := range cells {
		p := probs[len(t6)+i]
		want := []string{c.Net1, c.Net2}
		if !reflect.DeepEqual(p.req.Networks, want) || !reflect.DeepEqual(p.req.Iterations, []int{c.Iter1, c.Iter2}) {
			t.Errorf("problem %s: %v x %v, Table 8 has %v x [%d %d]", p.name, p.req.Networks, p.req.Iterations, want, c.Iter1, c.Iter2)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program prints %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestFrameLayer pins the symbol-to-layer mapping of the CPU shares.
func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"haxconn/internal/serve.(*Runtime).Step":    "serve",
		"haxconn/internal/solver.OptimizeBB.func3":  "solver",
		"haxconn/internal/obs.(*Tracer).WriteJSONL": "obs",
		"runtime.mallocgc":                          "runtime.malloc",
		"runtime.gcBgMarkWorker":                    "runtime.gc",
		"runtime.gcAssistAlloc1":                    "runtime.gc",
		"main.(*quartet).pass":                      "",
		"haxconn/internal/nn.ByName":                "nn",
		"encoding/json.(*encodeState).reflectValue": "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileDecode decodes a real CPU profile and attributes its samples.
func TestProfileDecode(t *testing.T) {
	pr := newProbe()
	if err := pr.startProfile(); err != nil {
		t.Fatal(err)
	}
	if _, err := paperProblems(); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := 0; i < 300_000_000; i++ {
		x += float64(i % 7)
	}
	if err := pr.stopProfile(); err != nil {
		t.Fatal(err)
	}
	if pr.profSamples == 0 {
		t.Fatalf("no samples decoded (%v)", x)
	}
}

// TestExhaustiveCheckAllPairs runs the exhaustive branch & bound check on
// every two-network problem, not only a run's seed-chosen sample.
func TestExhaustiveCheckAllPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates all 63 two-network problems")
	}
	bb, err := setupPlanPaper(1)
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*planPaper)
	if _, err := b.pass(0, nil); err != nil {
		t.Fatal(err)
	}
	for i, p := range b.problems {
		if len(p.req.Networks) != 2 {
			continue
		}
		if err := b.checkExhaustive(p.req, b.ref[i].HaXCoNN); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}
