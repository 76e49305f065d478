package serve

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// quartetPoisson is the mixed-demand quartet with Poisson arrivals at 125
// rps per tenant: queues deep enough that the contention-aware beam fills
// and, as they drain, its lookahead runs.
func quartetPoisson(t *testing.T, durationMs float64, seed int64) Trace {
	t.Helper()
	specs := MixedDemandTenants()
	for i := range specs {
		specs[i].PeriodMs, specs[i].RateRPS = 0, 125
	}
	tr, err := Generate(specs, durationMs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr.InArrivalOrder()
}

// TestWarmStepAllocatesNothing: on a warm runtime — a cache that holds
// every mix the trace dispatches or scores, maps that hold every tenant,
// network and mix key, arenas and queues grown to the trace's demand — an
// Offer+Step cycle allocates nothing, under every built-in mix policy. The
// tally's latency runs grow with the run rather than the round, so they
// are sized up front, and a subscriber replaces the completion log.
func TestWarmStepAllocatesNothing(t *testing.T) {
	tr := quartetPoisson(t, 2000, 21)
	for _, policy := range MixPolicies() {
		t.Run(policy, func(t *testing.T) {
			rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: policy})
			if err != nil {
				t.Fatal(err)
			}
			// Serve until a run neither misses nor probes: the cache is
			// settled, and the next run repeats that one round for round.
			rounds := 0
			for k := 0; ; k++ {
				sum, err := rt.Serve(tr)
				if err != nil {
					t.Fatal(err)
				}
				if c := rt.Cache(); c.Misses == 0 && c.Probes == 0 {
					rounds = sum.Rounds
					break
				}
				if k == 5 {
					t.Fatal("six runs and the cache still misses or probes")
				}
			}
			rt.Subscribe(func(Completion) {})
			rt.Reset()
			next := 0
			cycle := func() {
				for next < len(tr) && tr[next].ArrivalMs <= rt.NextStartMs() {
					if _, err := rt.Offer(tr[next]); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if err := rt.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// Half the trace fills the runtime's maps and grows its buffers.
			for rt.Rounds() < rounds/2 {
				cycle()
			}
			for _, a := range rt.tally.tenants {
				a.lats = slices.Grow(a.lats, len(tr))
			}
			rt.tally.total.lats = slices.Grow(rt.tally.total.lats, len(tr))
			const runs = 100
			if rt.Rounds()+runs+1 > rounds {
				t.Fatalf("%d rounds in the trace, too few to measure %d more after %d", rounds, runs+1, rt.Rounds())
			}
			if n := testing.AllocsPerRun(runs, cycle); n != 0 {
				t.Errorf("a warm Offer+Step cycle allocates %v times, want 0", n)
			}
		})
	}
}

// formNets, formDemands and formSLOs are what randomQueue draws from:
// short lists, so demands, slacks and networks tie often. "NoSuchNet"
// cannot be scored.
var (
	formNets    = []string{"SqueezeNet", "Inception", "ResNet152", "ResNet18", "NoSuchNet"}
	formDemands = []float64{71, 76, 82, 91, 91}
	formSLOs    = []float64{0, 5, 7, 7, 12}
)

// randomQueue draws an eligible queue of 0–24 candidates over the first
// nets networks, MaxBatch 1–maxBatch, arrivals three to a millisecond.
func randomQueue(rng *rand.Rand, nets, maxBatch int, startMs float64) FormInput {
	cands := make([]Candidate, rng.Intn(25))
	for i := range cands {
		cands[i] = Candidate{
			Request: Request{ID: i, Tenant: "t", Network: formNets[rng.Intn(nets)],
				ArrivalMs: startMs - 8 + float64(i/3), SLOMs: formSLOs[rng.Intn(len(formSLOs))]},
			DemandGBps:   formDemands[rng.Intn(len(formDemands))],
			WaitedRounds: rng.Intn(6),
		}
	}
	return FormInput{StartMs: startMs, MaxBatch: 1 + rng.Intn(maxBatch), Eligible: cands}
}

// fakeScoreMany stands in for the contention model: a selection's
// makespan and per-request ends come from its candidates' demands alone,
// rounded so that scores tie, and a selection holding "NoSuchNet" cannot
// be scored.
func fakeScoreMany(cands []Candidate) BatchScorerMany {
	return func(sels [][]int) ([]BatchScore, []bool) {
		scores, oks := make([]BatchScore, len(sels)), make([]bool, len(sels))
		for i, sel := range sels {
			if len(sel) == 0 || slices.ContainsFunc(sel, func(k int) bool { return cands[k].Network == "NoSuchNet" }) {
				continue
			}
			ends := make([]float64, len(sel))
			span := 0.0
			for k, idx := range sel {
				span += math.Round(cands[idx].DemandGBps / 20)
				ends[k] = span
			}
			scores[i], oks[i] = BatchScore{MakespanMs: span, EndMs: ends}, true
		}
		return scores, oks
	}
}

// wireScorer gives in the fake scorer as the policy sees it: how says
// whether it is wired in bulk, one selection at a time, or not at all.
func wireScorer(in FormInput, how int) FormInput {
	many := fakeScoreMany(in.Eligible)
	switch how % 3 {
	case 1:
		in.ScoreMany = many
	case 2:
		in.Score = func(sel []int) (BatchScore, bool) {
			scores, oks := many([][]int{sel})
			return scores[0], oks[0]
		}
	}
	return in
}

// builtinFormers returns every built-in policy, the contention-aware one
// with a beam of the given width.
func builtinFormers(beam int) []MixFormer {
	return []MixFormer{FIFO(), DemandBalance(), SLOAware(), ContentionAwareMix(beam)}
}

// checkArenaForm runs m on in without an arena and then on a, reset for
// the round, and fails the test unless the selections are equal. A second
// Form on the same arena, before the next reset, must leave the first
// selection intact: it stays valid until the next round.
func checkArenaForm(t *testing.T, m MixFormer, in FormInput, a *scoreArena, label string) {
	t.Helper()
	fresh := m.Form(in)
	a.reset(in.Eligible, in.StartMs)
	arenaIn := in
	arenaIn.arena = a
	got := m.Form(arenaIn)
	kept := slices.Clone(got)
	if !slices.Equal(got, fresh) {
		t.Fatalf("%s %s: arena selection %v, fresh %v", label, m.Name(), got, fresh)
	}
	m.Form(arenaIn)
	if !slices.Equal(got, kept) {
		t.Fatalf("%s %s: a second Form on the arena changed the first selection to %v, was %v", label, m.Name(), got, kept)
	}
}

// TestArenaFormMatchesFresh: every built-in policy selects the same batch
// whether it carves from the round arena or allocates, over seeded random
// queues of 0–24 eligible requests at MaxBatch 1–4 with ties in demand and
// slack; the contention-aware policy is scored in bulk, one selection at a
// time and not at all. Then the runtime's own scorer: its probes and
// evaluation pool run while the arena is live (first the arena Form, then
// the fresh one, on even queues), on a cold cache.
func TestArenaFormMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var a scoreArena
	for k := 0; k < 400; k++ {
		in := wireScorer(randomQueue(rng, len(formNets), 4, 10), k)
		for _, m := range builtinFormers(1 + k%10) {
			checkArenaForm(t, m, in, &a, "fake scorer")
		}
	}

	rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: MixContentionAware})
	if err != nil {
		t.Fatal(err)
	}
	m := ContentionAwareMix(0)
	for k := 0; k < 40; k++ {
		start := float64(20 * k)
		in := randomQueue(rng, len(formNets), 2, start)
		in.ScoreMany = rt.scoreManyFn
		rt.score.reset(in.Eligible, start)
		arenaIn := in
		arenaIn.arena = &rt.score
		var got, fresh []int
		if k%2 == 0 {
			got = slices.Clone(m.Form(arenaIn))
			fresh = m.Form(in)
		} else {
			fresh = m.Form(in)
			got = m.Form(arenaIn)
		}
		if !slices.Equal(got, fresh) {
			t.Fatalf("runtime scorer, queue %d: arena selection %v, fresh %v", k, got, fresh)
		}
	}
	if rt.Cache().Probes == 0 {
		t.Error("the runtime scorer built no probe: the cold path went unexercised")
	}
}

// hostileFloats are FuzzMixFormArena's demands, SLOs, arrivals and round
// starts.
var hostileFloats = []float64{0, 1, 7, 71, 91, -5, math.NaN(), math.Inf(1), math.Inf(-1),
	1e308, -1e308, 5e-324, math.Copysign(0, -1)}

// FuzzMixFormArena: hostile eligible queues — NaN and ±Inf demands, SLOs,
// arrivals and round starts — through every built-in policy, arena-backed
// against fresh: the selections are equal, valid index sets of at most
// MaxBatch, and nothing panics. Four bytes make a candidate (network,
// demand, SLO, arrival; the network byte's high bits its wait); the head
// holds MaxBatch (-1 to 4), the round start, and the contention-aware
// beam and scorer wiring.
func FuzzMixFormArena(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 1, 2, 3, 1, 2, 3, 4})
	f.Add([]byte{2, 6, 5, 0, 6, 6, 6, 1, 7, 7, 7, 2, 8, 8, 8, 3, 3, 3, 3})
	f.Add([]byte{4, 2, 38, 0, 4, 4, 2, 1, 4, 4, 2, 2, 3, 3, 2, 3, 3, 3, 2, 0, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		head, body := data[:3], data[3:]
		cands := make([]Candidate, 0, 24)
		for i := 0; len(body) >= 4 && i < 24; i++ {
			b := body[:4]
			body = body[4:]
			cands = append(cands, Candidate{
				Request: Request{ID: i, Tenant: "t", Network: formNets[int(b[0])%len(formNets)],
					ArrivalMs: hostileFloats[int(b[3])%len(hostileFloats)],
					SLOMs:     hostileFloats[int(b[2])%len(hostileFloats)]},
				DemandGBps:   hostileFloats[int(b[1])%len(hostileFloats)],
				WaitedRounds: int(b[0]) / len(formNets) % 8,
			})
		}
		in := FormInput{StartMs: hostileFloats[int(head[1])%len(hostileFloats)],
			MaxBatch: int(head[0])%6 - 1, Eligible: cands}
		in = wireScorer(in, int(head[2]))
		var a scoreArena
		for _, m := range builtinFormers(1 + int(head[2])/3%10) {
			checkArenaForm(t, m, in, &a, "hostile queue")
			sel := m.Form(in)
			if len(sel) > max(in.MaxBatch, 0) {
				t.Fatalf("%s selected %d of MaxBatch %d", m.Name(), len(sel), in.MaxBatch)
			}
			seen := make([]bool, len(cands))
			for _, i := range sel {
				if i < 0 || i >= len(cands) || seen[i] {
					t.Fatalf("%s selected %v from %d candidates", m.Name(), sel, len(cands))
				}
				seen[i] = true
			}
		}
	})
}

// demandChecker wraps demand-balance and checks, every round it forms,
// that each eligible candidate carries DemandGBps(Network) to the bit.
type demandChecker struct {
	MixFormer
	rt     *Runtime
	t      *testing.T
	rounds int
}

func (c *demandChecker) Form(in FormInput) []int {
	c.rounds++
	for _, e := range in.Eligible {
		want, err := c.rt.DemandGBps(e.Network)
		if err != nil || math.Float64bits(e.DemandGBps) != math.Float64bits(want) {
			c.t.Errorf("round %d, request %d (%s): DemandGBps %v, estimate %v (%v)", c.rounds, e.ID, e.Network, e.DemandGBps, want, err)
		}
	}
	return c.MixFormer.Form(in)
}

// TestDemandSlotsFollowSetMix: a runtime that starts on fifo fills no
// demand slot; switched mid-trace to a demand-aware policy, it hands every
// eligible candidate the network's estimate in every round — requests
// queued under fifo included — and again after a switch back to fifo and
// forth.
func TestDemandSlotsFollowSetMix(t *testing.T) {
	tr := quartetPoisson(t, 600, 5)
	rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	checker := &demandChecker{MixFormer: DemandBalance(), rt: rt, t: t}
	next := 0
	for next < len(tr) || rt.QueueDepth() > 0 {
		if next < len(tr) && tr[next].ArrivalMs <= rt.NextStartMs() {
			if _, err := rt.Offer(tr[next]); err != nil {
				t.Fatal(err)
			}
			next++
			continue
		}
		switch rt.Rounds() {
		case 40, 120:
			rt.SetMix(checker)
		case 80:
			rt.SetMix(nil)
		}
		if err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if checker.rounds < 80 {
		t.Errorf("the checking former formed %d rounds, want at least 80", checker.rounds)
	}
}

// TestPendingDemandSpreadMatchesEstimates: the spread read from the demand
// slots equals the heaviest minus the lightest DemandGBps over the pending
// queue, whether the slots are empty (fifo) or filled (demand-balance),
// and a failing estimate fails it as before, on every call.
func TestPendingDemandSpreadMatchesEstimates(t *testing.T) {
	tr := quartetPoisson(t, 400, 9)
	for _, policy := range []string{MixFIFO, MixDemandBalance} {
		rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		checks := 0
		for next := 0; next < len(tr) || rt.QueueDepth() > 0; {
			if next < len(tr) && tr[next].ArrivalMs <= rt.NextStartMs() {
				if _, err := rt.Offer(tr[next]); err != nil {
					t.Fatal(err)
				}
				next++
			} else if err := rt.Step(); err != nil {
				t.Fatal(err)
			}
			got, err := rt.PendingDemandSpread()
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			if len(rt.pending) >= 2 {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, p := range rt.pending {
					d, err := rt.DemandGBps(p.Network)
					if err != nil {
						t.Fatal(err)
					}
					lo, hi = math.Min(lo, d), math.Max(hi, d)
				}
				want = hi - lo
				checks++
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, %d pending: spread %v, estimates give %v", policy, len(rt.pending), got, want)
			}
		}
		if checks == 0 {
			t.Fatalf("%s: the queue never held two requests", policy)
		}
	}

	rt, err := New(Config{Platform: soc.Orin(), Policy: NaiveGPUOnly, MixPolicy: MixDemandBalance})
	if err != nil {
		t.Fatal(err)
	}
	fail := errors.New("characterization failed")
	failCharacterize(rt, "ResNet18", fail)
	for i, n := range []string{"SqueezeNet", "ResNet18"} {
		if _, err := rt.Offer(Request{ID: i, Tenant: "t", Network: n}); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 2; k++ {
		if _, err := rt.PendingDemandSpread(); !errors.Is(err, fail) {
			t.Fatalf("spread call %d: error %v, want %v", k, err, fail)
		}
	}
	if err := rt.Step(); !errors.Is(err, fail) {
		t.Fatalf("Step: error %v, want %v", err, fail)
	}
}

// TestEvaluateSharesEvalAcrossClones: Entry.Evaluate returns one
// evaluation per assignment, whether it finds the schedule by identity or
// by key: a clone of a deployable schedule (equal key, another pointer)
// gets the very *Eval its original got, and an own schedule evaluated
// after its clone gets the clone's.
func TestEvaluateSharesEvalAcrossClones(t *testing.T) {
	r, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := r.Cache().Lookup([]string{"ResNet152", "VGG19"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Any == nil || len(e.Any.History) < 2 {
		t.Fatal("the mix needs an incumbent stream of at least two schedules")
	}
	first, last := e.Any.History[0].Schedule, e.Any.History[len(e.Any.History)-1].Schedule
	for _, s := range []struct {
		name string
		s    *schedule.Schedule
	}{{"naive", e.Naive}, {"first incumbent", first}} {
		ev, err := e.Evaluate(s.s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := e.Evaluate(s.s.Clone()); err != nil || got != ev {
			t.Errorf("%s: its clone evaluated to %p, the original to %p (%v)", s.name, got, ev, err)
		}
		if got, _ := e.Evaluate(s.s); got != ev {
			t.Errorf("%s: evaluated again to %p, first %p", s.name, got, ev)
		}
	}
	evClone, err := e.Evaluate(last.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if got, err := e.Evaluate(last); err != nil || got != evClone {
			t.Errorf("last incumbent after its clone, call %d: %p, the clone's %p (%v)", k, got, evClone, err)
		}
	}
	if got, err := e.Evaluate(e.Deployable(1e9)); err != nil || got != evClone {
		t.Errorf("the schedule deployable once every incumbent landed evaluated to %p, want the clone's %p (%v)", got, evClone, err)
	}
}
