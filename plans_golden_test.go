package haxconn

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"haxconn/internal/baselines"
	"haxconn/internal/core"
	"haxconn/internal/experiments"
)

var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/paper_plans.golden and testdata/paper_search.golden from the current code")

const plansGolden = "testdata/paper_plans.golden"

// TestPaperPlansGolden pins the 65 plans of the paper's evaluation set —
// Table 6's 10 experiments, then Table 8's 55 Orin pairs in table order —
// to the bit: each plan's schedule Key, the bits of its PredictedMs,
// MeasuredMs and FPS, and the bits of every baseline's MeasuredMs. A
// change to the solver's search or to how plans are measured must leave
// every line as it is.
//
// The file was generated before branch & bound gained its per-accelerator
// load bound and before core.Measure stopped recording timelines, so it
// pins that neither moved a plan. Regenerate it only for a change that is
// meant to move plans, and list the moved lines in CHANGES.md:
//
//	go test -run TestPaperPlansGolden -update-plans .
func TestPaperPlansGolden(t *testing.T) {
	var lines []string
	for _, d := range experiments.Table6Defs() {
		req, err := d.Request()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, planLine(t, fmt.Sprintf("t6-exp%d", d.Exp), req))
	}
	for _, req := range experiments.Table8Requests() {
		lines = append(lines, planLine(t, "t8-"+strings.Join(req.Networks, "+"), req))
	}
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(plansGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, plansGolden)
	if len(want) != len(lines) {
		t.Fatalf("%s has %d plans, the evaluation set %d", plansGolden, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("plan %d moved:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
}

// readGolden returns the lines of a golden file.
func readGolden(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// planLine compares one request and renders its plan as one golden line:
// name, schedule key, then predicted, measured and FPS bits, then each
// baseline's measured bits in baselines.Names order.
func planLine(t *testing.T, name string, req core.Request) string {
	t.Helper()
	cmp, err := core.Compare(req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := cmp.HaXCoNN
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %016x %016x %016x", name, h.Schedule.Key(),
		math.Float64bits(h.PredictedMs), math.Float64bits(h.MeasuredMs), math.Float64bits(h.FPS))
	for _, bn := range baselines.Names {
		fmt.Fprintf(&b, " %s=%016x", bn, math.Float64bits(cmp.Baselines[bn].MeasuredMs))
	}
	return b.String()
}
