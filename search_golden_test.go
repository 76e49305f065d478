package haxconn

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"haxconn/internal/core"
	"haxconn/internal/experiments"
	"haxconn/internal/schedule"
)

const searchGolden = "testdata/paper_search.golden"

// TestPaperSearchGolden pins branch & bound's search, not only its
// answer, on 256 configurations: the 65 problems of the paper's
// evaluation set under both objectives, and the 63 two-network ones also
// at MaxTransitions 2. Each line holds the search's node, evaluation and
// prune counts, whether it completed, the final schedule's key and cost
// bits, and every incumbent's key, node count and cost bits. The serving
// cache deploys incumbents by node count (solver.Anytime.ScheduleAtNodes),
// so a change that keeps every plan but lands an incumbent at another
// node still moves served results; this test catches it.
//
// The searches run as the serving cache runs them
// (core.AnytimeFromProfile, seeded with the naive baselines).
// Regenerate the file only for a change that is meant to move the search,
// and list the moved lines in CHANGES.md:
//
//	go test -run TestPaperSearchGolden -update-plans .
func TestPaperSearchGolden(t *testing.T) {
	type config struct {
		name string
		req  core.Request
	}
	var base []config
	for _, d := range experiments.Table6Defs() {
		req, err := d.Request()
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, config{fmt.Sprintf("t6-exp%d", d.Exp), req})
	}
	for _, req := range experiments.Table8Requests() {
		base = append(base, config{"t8-" + strings.Join(req.Networks, "+"), req})
	}
	var lines []string
	for _, mt := range []int{1, 2} {
		for _, c := range base {
			if mt > 1 && len(c.req.Networks) != 2 {
				continue
			}
			for _, obj := range []schedule.Objective{schedule.MinMaxLatency, schedule.MaxThroughput} {
				req := c.req
				req.Objective, req.MaxTransitions = obj, mt
				lines = append(lines, searchLine(t, fmt.Sprintf("%s %s mt%d", c.name, obj, mt), req))
			}
		}
	}
	if *updatePlans {
		if err := os.WriteFile(searchGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, searchGolden)
	if len(want) != len(lines) {
		t.Fatalf("%s has %d searches, the evaluation set %d", searchGolden, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("search %d moved:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// searchLine runs one search and renders it as one golden line: name,
// nodes, evaluations, prunes, completion, the final key and cost bits,
// then each incumbent as key@nodes=cost bits.
func searchLine(t *testing.T, name string, req core.Request) string {
	t.Helper()
	prob, pr, err := core.Prepare(req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	a, err := core.AnytimeFromProfile(req, prob, pr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st := a.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "%s nodes=%d evals=%d pruned=%d complete=%t %s %016x", name,
		st.Nodes, st.Evals, st.Pruned, st.Complete, a.Best.Key(), math.Float64bits(a.Cost))
	for _, inc := range a.History {
		fmt.Fprintf(&b, " %s@%d=%016x", inc.Schedule.Key(), inc.Nodes, math.Float64bits(inc.Cost))
	}
	return b.String()
}
