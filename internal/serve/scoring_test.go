package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"haxconn/internal/obs"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// serialScore is the contention-aware scorer as it ran one selection at a
// time, before bulk scoring: canonicalize the selection, probe its mix
// and evaluate the schedule the runtime would deploy for it, emit the
// mix-score event, map the per-stream ends back to queue order. It is the
// oracle the bulk scorer must reproduce.
func serialScore(r *Runtime, cands []Candidate, startMs float64, sel []int) (BatchScore, bool) {
	if len(sel) == 0 {
		return BatchScore{}, false
	}
	idx := append([]int(nil), sel...)
	sort.Ints(idx)
	perm := make([]int, len(idx))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return cands[idx[perm[a]]].Network < cands[idx[perm[b]]].Network
	})
	mix := make([]string, len(idx))
	for k, pi := range perm {
		mix[k] = cands[idx[pi]].Network
	}
	entry, _, err := r.cache.Probe(mix, startMs)
	if err != nil {
		return BatchScore{}, false
	}
	ev, err := entry.Evaluate(r.deployable(entry, startMs))
	if err != nil {
		return BatchScore{}, false
	}
	r.trace(obs.Event{AtMs: startMs, Kind: obs.KindMixScore, Request: obs.NoRequest,
		Detail: strings.Join(mix, "+"), Value: ev.MakespanMs})
	ends := make([]float64, len(idx))
	for k, pi := range perm {
		ends[pi] = ev.StreamEndMs[k]
	}
	return BatchScore{MakespanMs: ev.MakespanMs, EndMs: ends}, true
}

// sameScore reports whether two scores are bit-identical.
func sameScore(a, b BatchScore) bool {
	if math.Float64bits(a.MakespanMs) != math.Float64bits(b.MakespanMs) || len(a.EndMs) != len(b.EndMs) {
		return false
	}
	for i := range a.EndMs {
		if math.Float64bits(a.EndMs[i]) != math.Float64bits(b.EndMs[i]) {
			return false
		}
	}
	return true
}

func cloneScores(scores []BatchScore) []BatchScore {
	out := make([]BatchScore, len(scores))
	for i, s := range scores {
		out[i] = BatchScore{MakespanMs: s.MakespanMs, EndMs: append([]float64(nil), s.EndMs...)}
	}
	return out
}

// TestBulkScoringMatchesSerial: the bulk scorer (one canonicalization
// path on the per-round arena, ProbeAll, memoized evaluations inline and
// the rest on the pool) must yield the scores, ok flags, probe counter,
// mix-score events and cache-probe events of scoring each selection
// serially — cold, warm, and at later round starts where background
// incumbents upgrade the deployed schedules. The beam carries reversed
// and duplicate selections, a same-network pair, a three-wide selection,
// an empty one and unscoreable ones. A lookahead wave scored in the same
// round must leave the first wave's scores intact: they live until Form
// returns.
func TestBulkScoringMatchesSerial(t *testing.T) {
	nets := []string{"SqueezeNet", "Inception", "ResNet152", "ResNet18", "NoSuchNet", "SqueezeNet"}
	cands := make([]Candidate, len(nets))
	for i, n := range nets {
		cands[i] = Candidate{Request: Request{ID: i, Tenant: "t", Network: n, ArrivalMs: float64(i), SLOMs: 7}}
	}
	beam := [][]int{{0, 1}, {1, 0}, {2, 3}, {0, 5}, {5, 0, 3}, {1, 4}, nil, {3, 2}, {0, 1}, {4}}
	rests := [][]int{{2, 3, 4, 5}, {3, 1}, {1, 2, 3}, nil, {0, 2}}
	newRuntime := func() (*Runtime, *obs.Tracer) {
		t.Helper()
		tr := obs.NewTracer()
		r, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: MixContentionAware, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return r, tr
	}
	bulk, bulkTr := newRuntime()
	serial, serialTr := newRuntime()
	check := func(wave string, startMs float64, sels [][]int, got []BatchScore, gotOK []bool) {
		t.Helper()
		if len(got) != len(sels) || len(gotOK) != len(sels) {
			t.Fatalf("%s at %g ms: %d scores, %d flags for %d selections", wave, startMs, len(got), len(gotOK), len(sels))
		}
		for i, sel := range sels {
			want, ok := serialScore(serial, cands, startMs, sel)
			if ok != gotOK[i] {
				t.Errorf("%s at %g ms, sel %v: ok %v, serial %v", wave, startMs, sel, gotOK[i], ok)
				continue
			}
			if ok && !sameScore(got[i], want) {
				t.Errorf("%s at %g ms, sel %v: score %+v, serial %+v", wave, startMs, sel, got[i], want)
			}
		}
	}
	for _, startMs := range []float64{0, 0, 40, 400} {
		bulk.score.reset(cands, startMs)
		first, firstOK := bulk.scoreMany(beam)
		kept := cloneScores(first)
		check("beam", startMs, beam, first, firstOK)
		second, secondOK := bulk.scoreMany(rests)
		check("lookahead", startMs, rests, second, secondOK)
		for i := range first {
			if !sameScore(first[i], kept[i]) {
				t.Errorf("at %g ms: the lookahead wave changed beam score %d: %+v, was %+v", startMs, i, first[i], kept[i])
			}
		}
		if bulk.cache.Probes != serial.cache.Probes {
			t.Errorf("at %g ms: bulk counted %d probes, serial %d", startMs, bulk.cache.Probes, serial.cache.Probes)
		}
	}
	if bulk.cache.Probes == 0 {
		t.Error("no scoring probe was built; the cold path went unexercised")
	}
	// A wave commits its cache probes before it emits its mix scores, so
	// the two kinds interleave differently; each kind's stream must match.
	byKind := func(tr *obs.Tracer) map[string][]obs.Event {
		out := map[string][]obs.Event{}
		for _, e := range tr.Events() {
			out[e.Kind] = append(out[e.Kind], e)
		}
		return out
	}
	got, want := byKind(bulkTr), byKind(serialTr)
	if len(got) != 2 || len(got[obs.KindMixScore]) == 0 || len(got[obs.KindCacheProbe]) == 0 {
		t.Errorf("bulk event kinds %v, want mix-score and cache-probe events only", bulkTr.CountByKind())
	}
	for _, kind := range []string{obs.KindMixScore, obs.KindCacheProbe} {
		g, w := got[kind], want[kind]
		if len(g) != len(w) {
			t.Errorf("%s: bulk emitted %d events, serial %d", kind, len(g), len(w))
			continue
		}
		for i := range g {
			if g[i].Detail != w[i].Detail || g[i].Device != w[i].Device || g[i].Request != w[i].Request ||
				math.Float64bits(g[i].AtMs) != math.Float64bits(w[i].AtMs) ||
				math.Float64bits(g[i].Value) != math.Float64bits(w[i].Value) {
				t.Errorf("%s event %d: bulk %+v, serial %+v", kind, i, g[i], w[i])
			}
		}
	}
}

// TestWarmHitsAllocateNothing: a warm cache hit and a memoized evaluation
// are a map lookup and nothing more — the mix key and the schedule key
// are built in stack buffers — and so is a whole warm scoring wave.
func TestWarmHitsAllocateNothing(t *testing.T) {
	r, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, MixPolicy: MixContentionAware})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Cache()
	live := []string{"ResNet152", "VGG19"} // canonical: sorted, as dispatch passes it
	probed := []string{"ResNet18", "SqueezeNet"}
	e, _, err := c.Lookup(live, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Probe(probed, 0); err != nil {
		t.Fatal(err)
	}
	s := e.Best()
	if _, err := e.Evaluate(s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(s); err != nil {
		t.Fatal(err)
	}
	cands := []Candidate{
		{Request: Request{ID: 0, Network: "VGG19"}},
		{Request: Request{ID: 1, Network: "ResNet152"}},
		{Request: Request{ID: 2, Network: "SqueezeNet"}},
		{Request: Request{ID: 3, Network: "ResNet18"}},
	}
	beam := [][]int{{0, 1}, {1, 0}, {2, 3}, {0, 2}, {1, 3}}
	wave := func() {
		r.score.reset(cands, 10)
		if _, oks := r.scoreMany(beam); !oks[0] {
			t.Fatal("warm wave failed to score")
		}
	}
	wave()
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Cache.Lookup hit", func() { _, _, _ = c.Lookup(live, 1) }},
		{"Cache.Probe hit on a live entry", func() { _, _, _ = c.Probe(live, 1) }},
		{"Cache.Probe hit on a scoring probe", func() { _, _, _ = c.Probe(probed, 1) }},
		{"Entry.Evaluate memoized", func() { _, _ = e.Evaluate(s) }},
		{"Entry.Predict memoized", func() { _, _ = e.Predict(s) }},
		{"warm scoring wave", wave},
	} {
		if n := testing.AllocsPerRun(50, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
		}
	}
}

// summarizeOracle is Summarize as it was before the one-pass fold: each
// tenant's completions copied into a slice of its own, then folded. The
// fold must reproduce it bit for bit.
func summarizeOracle(completions []Completion, policy Policy, platform string, obj schedule.Objective) *Summary {
	sum := &Summary{Policy: policy.String(), Platform: platform, Objective: obj.String()}
	byTenant := map[string][]Completion{}
	for _, c := range completions {
		byTenant[c.Tenant] = append(byTenant[c.Tenant], c)
		if c.EndMs > sum.DurationMs {
			sum.DurationMs = c.EndMs
		}
	}
	names := make([]string, 0, len(byTenant))
	for name := range byTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum.Tenants = append(sum.Tenants, tenantStatsOracle(name, byTenant[name], sum.DurationMs))
	}
	sum.Total = tenantStatsOracle(totalName, completions, sum.DurationMs)
	return sum
}

func tenantStatsOracle(name string, cs []Completion, durationMs float64) TenantStats {
	st := TenantStats{Tenant: name, Offered: len(cs)}
	var lats []float64
	var sumMs float64
	for _, c := range cs {
		if st.Network == "" {
			st.Network = c.Network
		} else if st.Network != c.Network {
			st.Network = "mixed"
		}
		if c.Rejected {
			st.Rejected++
			continue
		}
		st.Completed++
		lats = append(lats, c.LatencyMs)
		sumMs += c.LatencyMs
		if c.Violated {
			st.Violations++
		}
	}
	if len(lats) == 0 {
		return st
	}
	sort.Float64s(lats)
	st.MeanMs = sumMs / float64(len(lats))
	st.P50Ms = schedule.Percentile(lats, 0.50)
	st.P95Ms = schedule.Percentile(lats, 0.95)
	st.P99Ms = schedule.Percentile(lats, 0.99)
	st.MaxMs = lats[len(lats)-1]
	st.ViolationRate = float64(st.Violations) / float64(st.Completed)
	if durationMs > 0 {
		st.ThroughputRPS = 1000 * float64(st.Completed) / durationMs
	}
	return st
}

// sameStatsBits compares every TenantStats field, floats bit for bit.
func sameStatsBits(a, b TenantStats) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

// TestSummarizeMatchesOracle: the one-pass Summarize equals the
// copy-based fold it replaced, every field bit for bit, on seeded random
// completion sets with rejections, a tenant whose networks differ (it
// reads "mixed"), a tenant that never has a request served, and the
// empty set — and on sets of up to 40 tenants whose latencies tie within
// and across tenants, some of them NaN, where the TOTAL row is merged
// from the tenants' sorted runs instead of sorted again.
func TestSummarizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nets := []string{"VGG19", "ResNet152", "SqueezeNet"}
	sets := [][]Completion{nil}
	for k := 0; k < 40; k++ {
		cs := make([]Completion, rng.Intn(400))
		for i := range cs {
			ti := rng.Intn(5)
			c := Completion{Request: Request{ID: i, Tenant: fmt.Sprintf("t%d", ti), Network: nets[ti%len(nets)],
				ArrivalMs: rng.Float64() * 1000, SLOMs: 10}}
			switch ti {
			case 3: // never served
				c.Rejected, c.RejectReason = true, RejectQueueFull
			case 4: // networks differ: "mixed"
				c.Network = nets[rng.Intn(len(nets))]
			}
			if !c.Rejected && rng.Float64() < 0.15 {
				c.Rejected, c.RejectReason = true, RejectSLO
			}
			if !c.Rejected {
				c.StartMs = c.ArrivalMs + rng.ExpFloat64()*5
				c.EndMs = c.StartMs + rng.Float64()*9
				c.LatencyMs = c.EndMs - c.ArrivalMs
				c.Violated = c.LatencyMs > c.SLOMs
			}
			cs[i] = c
		}
		sets = append(sets, cs)
	}
	var tied [][]Completion
	ties := []float64{0.5, 1.25, 3, 3, 7.75, 12}
	for k := 0; k < 12; k++ {
		draw := ties
		if k%3 == 2 {
			// NaN latencies sort first, in every row and in the merge.
			draw = append(ties[:len(ties):len(ties)], math.NaN())
		}
		cs := make([]Completion, 50+rng.Intn(600))
		for i := range cs {
			lat := draw[rng.Intn(len(draw))]
			cs[i] = Completion{Request: Request{ID: i, Tenant: fmt.Sprintf("m%02d", rng.Intn(1+k*4)), Network: "VGG19",
				ArrivalMs: float64(i), SLOMs: 10}, StartMs: float64(i), EndMs: float64(i) + lat, LatencyMs: lat,
				Violated: lat > 10}
		}
		tied = append(tied, cs)
	}
	for k, cs := range append(sets, tied...) {
		got := Summarize(cs, ContentionAware, "Orin", schedule.MinMaxLatency)
		want := summarizeOracle(cs, ContentionAware, "Orin", schedule.MinMaxLatency)
		if math.Float64bits(got.DurationMs) != math.Float64bits(want.DurationMs) ||
			got.Policy != want.Policy || got.Platform != want.Platform || got.Objective != want.Objective {
			t.Errorf("set %d: header %+v, oracle %+v", k, got, want)
		}
		if len(got.Tenants) != len(want.Tenants) || (got.Tenants == nil) != (want.Tenants == nil) {
			t.Fatalf("set %d: %d tenant rows, oracle %d", k, len(got.Tenants), len(want.Tenants))
		}
		for i := range got.Tenants {
			if !sameStatsBits(got.Tenants[i], want.Tenants[i]) {
				t.Errorf("set %d: tenant row %+v, oracle %+v", k, got.Tenants[i], want.Tenants[i])
			}
		}
		if !sameStatsBits(got.Total, want.Total) {
			t.Errorf("set %d: total row %+v, oracle %+v", k, got.Total, want.Total)
		}
	}
	last := Summarize(sets[len(sets)-1], ContentionAware, "Orin", schedule.MinMaxLatency)
	var sawMixed, sawUnserved bool
	for _, st := range last.Tenants {
		sawMixed = sawMixed || st.Network == "mixed"
		sawUnserved = sawUnserved || (st.Offered > 0 && st.Completed == 0)
	}
	if !sawMixed || !sawUnserved {
		t.Errorf("the random sets lost their mixed (%v) or never-served (%v) tenant", sawMixed, sawUnserved)
	}
}
