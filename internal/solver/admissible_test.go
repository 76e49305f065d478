package solver_test

import (
	"math"
	"testing"

	"haxconn/internal/core"
	"haxconn/internal/experiments"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/solver"
)

// pairLeaves calls visit on every leaf of every two-network problem of the
// paper's evaluation set (Table 6's pairs and Table 8's 55 Orin pairs),
// with the problem's index and request, its evaluator under its contention
// model, its load table and the leaf's candidate indices.
func pairLeaves(t *testing.T, visit func(p int, req core.Request, ev *schedule.Evaluator, loads *solver.LoadTable, s *schedule.Schedule, chosen []int)) {
	t.Helper()
	var reqs []core.Request
	for _, d := range experiments.Table6Defs() {
		if len(d.Networks) != 2 {
			continue
		}
		req, err := d.Request()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	reqs = append(reqs, experiments.Table8Requests()...)
	leaves := 0
	for p, req := range reqs {
		prob, pr, err := core.Prepare(req)
		if err != nil {
			t.Fatal(err)
		}
		model, err := core.Model(req)
		if err != nil {
			t.Fatal(err)
		}
		cands := [][][]int{solver.Candidates(pr, 0, 1), solver.Candidates(pr, 1, 1)}
		loads := solver.NewLoadTable(prob, pr, cands)
		ev := schedule.NewEvaluator(prob, pr, sim.ModelArbiter{Model: model})
		s := &schedule.Schedule{Assign: make([][]int, 2)}
		for c0, a0 := range cands[0] {
			for c1, a1 := range cands[1] {
				s.Assign[0], s.Assign[1] = a0, a1
				visit(p, req, ev, loads, s, []int{c0, c1})
				leaves++
			}
		}
	}
	t.Logf("%d problems, %d leaves", len(reqs), leaves)
}

// TestLoadBoundAdmissible checks branch & bound's per-accelerator load
// bound on every leaf of every two-network problem of the paper's
// evaluation set: the predicted makespan of each complete assignment is
// at least its margined bound, so no prefix the bound prunes hides a
// better schedule. The margin is needed: where the busiest accelerator
// never idles, the raw load and the simulated makespan sum the same times
// in different orders, and on over a thousand of these leaves the load
// comes out larger in the last bits.
func TestLoadBoundAdmissible(t *testing.T) {
	pairLeaves(t, func(_ int, req core.Request, ev *schedule.Evaluator, loads *solver.LoadTable, s *schedule.Schedule, chosen []int) {
		got, err := ev.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		if bound := loads.Bound(chosen); got.MakespanMs < bound {
			t.Fatalf("%v %s: predicted makespan %v below the load bound %v", req.Networks, s.Key(), got.MakespanMs, bound)
		}
	})
}

// TestLeafCutoffAdmissible checks the evaluator's incumbent cutoff on the
// same leaves. Limited just above its own makespan m, no leaf is cut, and
// its cost and makespan equal the full run's bit for bit: the cutoff's
// bound never passes the makespan. Limited at the problem's first leaf's
// makespan, as the first incumbent would limit it, a leaf that is cut
// has a makespan at least that limit.
func TestLeafCutoffAdmissible(t *testing.T) {
	problem, incumbent, cuts := -1, 0.0, 0
	pairLeaves(t, func(p int, req core.Request, ev *schedule.Evaluator, _ *solver.LoadTable, s *schedule.Schedule, _ []int) {
		cost, m, cut, err := ev.Cost(s, math.Inf(1))
		if err != nil || cut {
			t.Fatalf("%v %s: unlimited run cut %v, error %v", req.Networks, s.Key(), cut, err)
		}
		if p != problem {
			problem, incumbent = p, m
		}
		gotCost, gotM, cut, err := ev.Cost(s, math.Nextafter(m, math.Inf(1)))
		if err != nil {
			t.Fatal(err)
		}
		if cut {
			t.Fatalf("%v %s: cut limited just above its makespan %v", req.Networks, s.Key(), m)
		}
		if math.Float64bits(gotCost) != math.Float64bits(cost) || math.Float64bits(gotM) != math.Float64bits(m) {
			t.Fatalf("%v %s: limited run cost %v makespan %v, full run %v and %v", req.Networks, s.Key(), gotCost, gotM, cost, m)
		}
		if _, _, cut, err := ev.Cost(s, incumbent); err != nil {
			t.Fatal(err)
		} else if cut {
			cuts++
			if m < incumbent {
				t.Fatalf("%v %s: cut at limit %v, makespan %v", req.Networks, s.Key(), incumbent, m)
			}
		}
	})
	if cuts == 0 {
		t.Fatal("no leaf was cut at its problem's first makespan; the cutoff went untested")
	}
	t.Logf("%d leaves cut at their problem's first makespan", cuts)
}
