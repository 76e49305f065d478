package haxconn

import (
	"fmt"
	"strings"
	"testing"

	"haxconn/internal/baselines"
	"haxconn/internal/core"
	"haxconn/internal/experiments"
	"haxconn/internal/schedule"
)

// describeOracle is Schedule.Describe as it was before it appended into
// one buffer: one fmt.Fprintf per segment into a strings.Builder.
func describeOracle(s *schedule.Schedule, pr *schedule.Profile) string {
	var b strings.Builder
	for i, row := range s.Assign {
		if i > 0 {
			b.WriteString("; ")
		}
		groups := pr.Groups[i]
		b.WriteString(groups[0].Net.Name)
		b.WriteString(":")
		start := 0
		for g := 1; g <= len(row); g++ {
			if g == len(row) || row[g] != row[start] {
				fmt.Fprintf(&b, " %s[%d-%d]",
					pr.Platform.Accels[row[start]].Name,
					groups[start].Start, groups[g-1].End)
				start = g
			}
		}
	}
	return b.String()
}

// TestDescribeMatchesOracle: over the 65 paper problems (Table 6's 10
// experiments, Table 8's 55 pairs), the plan's description and every
// baseline's are the oracle's bytes — and so is a schedule that switches
// accelerator at every group, whose description outgrows Describe's stack
// buffer.
func TestDescribeMatchesOracle(t *testing.T) {
	var reqs []core.Request
	for _, d := range experiments.Table6Defs() {
		req, err := d.Request()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	reqs = append(reqs, experiments.Table8Requests()...)
	check := func(name string, r *core.Result) {
		t.Helper()
		if want := describeOracle(r.Schedule, r.Profile); r.Description != want {
			t.Errorf("%s: Describe %q, oracle %q", name, r.Description, want)
		}
	}
	var longest *core.Result
	for _, req := range reqs {
		cmp, err := core.Compare(req)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.Join(req.Networks, "+")
		check(name+" plan", cmp.HaXCoNN)
		for _, bn := range baselines.Names {
			check(name+" "+bn, cmp.Baselines[bn])
		}
		if longest == nil || len(req.Networks) > len(longest.Problem.Items) {
			longest = cmp.HaXCoNN
		}
	}
	pr := longest.Profile
	s := &schedule.Schedule{Assign: make([][]int, len(pr.Groups))}
	for i, groups := range pr.Groups {
		s.Assign[i] = make([]int, len(groups))
		for g := range groups {
			s.Assign[i][g] = pr.Allowed[g%len(pr.Allowed)]
		}
	}
	got, want := s.Describe(pr), describeOracle(s, pr)
	if len(want) <= 256 {
		t.Fatalf("the alternating schedule's description is %d bytes, too short to spill the stack buffer", len(want))
	}
	if got != want {
		t.Errorf("alternating schedule: Describe %q, oracle %q", got, want)
	}
}
