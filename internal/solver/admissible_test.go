package solver_test

import (
	"testing"

	"haxconn/internal/core"
	"haxconn/internal/experiments"
	"haxconn/internal/schedule"
	"haxconn/internal/sim"
	"haxconn/internal/solver"
)

// TestLoadBoundAdmissible checks branch & bound's per-accelerator load
// bound on every leaf of every two-network problem of the paper's
// evaluation set (Table 6's pairs and Table 8's 55 Orin pairs): the
// predicted makespan of each complete assignment is at least its margined
// bound, so no prefix the bound prunes hides a better schedule. The
// margin is needed: where the busiest accelerator never idles, the raw
// load and the simulated makespan sum the same times in different orders,
// and on over a thousand of these leaves the load comes out larger in the
// last bits.
func TestLoadBoundAdmissible(t *testing.T) {
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
	for _, req := range reqs {
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
				got, err := ev.Evaluate(s)
				if err != nil {
					t.Fatal(err)
				}
				if bound := loads.Bound([]int{c0, c1}); got.MakespanMs < bound {
					t.Fatalf("%v %s: predicted makespan %v below the load bound %v", req.Networks, s.Key(), got.MakespanMs, bound)
				}
				leaves++
			}
		}
	}
	t.Logf("%d problems, %d leaves", len(reqs), leaves)
}
