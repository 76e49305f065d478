package solver

import (
	"testing"

	"haxconn/internal/baselines"
	"haxconn/internal/schedule"
)

// TestScheduleWhereUnseededReturnsNil: an unseeded anytime run has no
// deployable schedule before the solver's first incumbent lands, so
// querying the stream at zero search work must return nil — not the
// first improvement, which the solver had not found yet at that point.
func TestScheduleWhereUnseededReturnsNil(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 4, "AlexNet", "ResNet18")
	cfg := Config{Model: model(t, prob.Platform)}
	a, err := RunAnytime(prob, pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.History) == 0 {
		t.Fatal("no incumbents recorded")
	}
	if first := a.History[0].Nodes; first < 1 {
		t.Fatalf("first incumbent at %d nodes; expected >= 1 without seeds", first)
	}
	if s := a.ScheduleAtNodes(0); s != nil {
		t.Errorf("ScheduleAtNodes(0) = %v before any incumbent landed; want nil", s.Assign)
	}
}

// TestScheduleWhereSeededFallsBackToSeed: with seeds configured, the
// zero-work fallback is the configured naive seed — the schedule the
// runtime actually starts on.
func TestScheduleWhereSeededFallsBackToSeed(t *testing.T) {
	prob, pr := buildProblem(t, "Orin", schedule.MinMaxLatency, 4, "AlexNet", "ResNet18")
	seed := baselines.NaiveConcurrent(pr)
	cfg := Config{Model: model(t, prob.Platform), Seeds: []*schedule.Schedule{seed}}
	a, err := RunAnytime(prob, pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := a.ScheduleAtNodes(0)
	if got == nil {
		t.Fatal("seeded run must deploy the seed at zero nodes")
	}
	if got.Key() != seed.Key() {
		t.Errorf("zero-node schedule %v; want the configured seed %v", got.Assign, seed.Assign)
	}
}
