// Mix-forming layer: which pending requests run concurrently in the next
// dispatch round. The paper's central observation is that *which networks
// co-run* determines shared-memory contention; FIFO-prefix batching throws
// that degree of freedom away. A MixFormer makes batch formation a policy:
// the runtime hands it the eligible pending requests (with profiler demand
// estimates and SLO deadlines) and the policy ranks the subset to dispatch.
//
// Three built-in policies:
//
//   - fifo: the oldest eligible requests, in arrival order — exactly the
//     dispatcher's historical behavior and the compatibility default.
//   - demand-balance: pairs memory-light with memory-heavy networks by
//     alternating between the heaviest and lightest eligible candidates,
//     capping the round's estimated aggregate memory pressure instead of
//     letting two bandwidth-saturating networks collide.
//   - slo-aware: deadline-urgency order — the requests with the least
//     slack (arrival + SLO - round start) dispatch first, possibly as a
//     non-contiguous subset of the queue.
//   - contention-aware: generates a bounded beam of candidate batches
//     (the fifo prefix, the demand-balance pairing, the slo-aware
//     ordering, and lexicographic subsets of the eligible queue) and
//     scores each with the analytic contention model — the predicted
//     makespan and per-request completion times of the schedule the
//     runtime would actually deploy for that mix — dispatching the batch
//     with the fewest predicted SLO violations, then the lowest predicted
//     makespan. Where demand-balance ranks by a scalar demand estimate,
//     contention-aware asks the model which co-run is genuinely fastest.
//
// Every policy is deterministic: ties break toward the older request
// (lower queue position), never toward map or slice iteration order. The
// runtime — not the policy — enforces the starvation bound: an eligible
// request passed over for Config.MaxWaitRounds consecutive rounds is
// forced into the next batch ahead of the policy's own ranking.
package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Built-in mix-forming policy names.
const (
	// MixFIFO dispatches the oldest eligible requests (the default).
	MixFIFO = "fifo"
	// MixDemandBalance alternates heaviest/lightest memory demand.
	MixDemandBalance = "demand-balance"
	// MixSLOAware dispatches by deadline urgency (least slack first).
	MixSLOAware = "slo-aware"
	// MixContentionAware scores a beam of candidate batches with the
	// analytic contention model and dispatches the best-predicted one.
	MixContentionAware = "contention-aware"
)

// DefaultScoreBeam bounds how many candidate batches the contention-aware
// policy scores per dispatch round. Each first-sighting of a mix costs a
// characterization (amortized by the cache's scoring probes); raising the
// beam widens the explored pairing space at higher dispatch cost.
const DefaultScoreBeam = 8

// Candidate is one eligible pending request as a mix-former sees it: the
// request itself plus the signals policies rank by.
type Candidate struct {
	Request
	// DemandGBps is the network's estimated standalone memory demand on
	// this device (the profiler's time-weighted mean along the fastest
	// path; see Runtime.DemandGBps). The runtime looks it up once per
	// request, the first round a demand-aware policy sees the request
	// eligible, and keeps it beside the pending queue. Zero when the
	// active policy is not demand-aware — the runtime skips the estimate
	// to keep the FIFO hot path free of profiling work.
	DemandGBps float64
	// WaitedRounds counts consecutive dispatch rounds this request was
	// eligible for but passed over by the mix policy.
	WaitedRounds int
}

// SlackMs is the request's deadline slack at the round start: time left
// until arrival + SLO. Requests without an SLO have infinite slack.
func (c Candidate) SlackMs(startMs float64) float64 {
	if c.SLOMs <= 0 {
		return math.Inf(1)
	}
	return c.ArrivalMs + c.SLOMs - startMs
}

// BatchScore is the analytic contention model's prediction for one
// candidate batch: what dispatching it as the next round would cost.
type BatchScore struct {
	// MakespanMs is the predicted round duration.
	MakespanMs float64
	// EndMs[i] is the predicted completion offset (from the round start)
	// of the i-th candidate of the scored selection in ascending queue
	// order — the per-request signal deadline-sensitive scoring needs.
	// The runtime's scorers carve it from the round arena, so it is valid
	// until Form returns (a MixFormer keeps no state across rounds).
	EndMs []float64
}

// BatchScorer predicts the outcome of dispatching a candidate subset of
// the eligible queue as one round, using the mix-keyed schedule cache:
// warm mixes are scored on the schedule the runtime would actually deploy
// right now, unseen mixes on their naive schedule via a memoized scoring
// probe. The boolean is false when the mix cannot be scored (its
// characterization failed); policies must fall back gracefully.
type BatchScorer func(sel []int) (BatchScore, bool)

// BatchScorerMany scores several candidate batches in one call, so the
// scorer can run the expensive per-mix work (characterization, speculative
// solves) for all unseen mixes concurrently instead of serially per
// candidate. Results align with sels; a nil sel scores false. The outcome
// per sel must be identical to calling a BatchScorer serially — bulk
// scoring changes wall-clock, never a score. The returned slices and every
// score's EndMs stay valid until Form returns, across later calls in the
// same round.
type BatchScorerMany func(sels [][]int) ([]BatchScore, []bool)

// FormInput is one dispatch round's context. The runtime builds it every
// round with its round arena attached (an unexported field): the built-in
// policies carve their working slices and their selection from it, so a
// warm round allocates nothing. A FormInput built anywhere else has no
// arena, and the policies allocate fresh slices; the selections are the
// same either way. A policy that wraps another passes its FormInput
// through unchanged, arena included.
type FormInput struct {
	// StartMs is the round's start on the virtual timeline.
	StartMs float64
	// MaxBatch caps the batch size (the workload-mix width).
	MaxBatch int
	// Eligible holds the pending requests that have arrived by StartMs,
	// oldest first (queue order).
	Eligible []Candidate
	// Score predicts a candidate batch's contention outcome. The runtime
	// wires it only for policies that declare ScoreAware — every other
	// policy sees nil and must not depend on it.
	Score BatchScorer
	// ScoreMany, when wired, scores whole candidate sets at once (see
	// BatchScorerMany); policies that score a beam prefer it over Score so
	// unseen mixes probe concurrently.
	ScoreMany BatchScorerMany

	// arena is the runtime's round arena, reset at the start of every
	// round; nil outside the runtime.
	arena *scoreArena
}

// ints returns n ints, carved from the round arena when there is one and
// freshly allocated otherwise. An arena's ints are not cleared: the caller
// overwrites each one before reading it.
func (in *FormInput) ints(n int) []int {
	if in.arena == nil {
		return make([]int, n)
	}
	return carveRaw(&in.arena.ints, n)
}

// lists returns n index lists, carved from the round arena when there is
// one and freshly allocated otherwise. Like ints, an arena's lists are not
// cleared.
func (in *FormInput) lists(n int) [][]int {
	if in.arena == nil {
		return make([][]int, n)
	}
	return carveRaw(&in.arena.lists, n)
}

// MixFormer selects which eligible requests form a dispatch round.
// Implementations must be deterministic and stateless across rounds: the
// same input must yield the same selection, so reruns are byte-identical.
type MixFormer interface {
	// Name identifies the policy ("fifo", "demand-balance", "slo-aware").
	Name() string
	// DemandAware reports whether Form reads Candidate.DemandGBps; a
	// demand-blind policy lets the runtime skip per-network profiling.
	DemandAware() bool
	// Form returns indices into in.Eligible, ranked most-preferred first,
	// at most in.MaxBatch and without duplicates. The runtime composes
	// the final batch: starved requests are forced in first, the policy's
	// ranking fills the rest, and any remaining slots fall back to queue
	// order — so a policy may return fewer indices than MaxBatch without
	// shrinking the round. Under the runtime the built-in policies carve
	// the returned slice from the round arena: it stays valid until the
	// next round, so a caller that keeps it longer copies it.
	Form(in FormInput) []int
}

// fifoFormer is the compatibility default: the dispatchable prefix of the
// queue, exactly the pre-mix-former dispatcher.
type fifoFormer struct{}

// FIFO returns the first-in-first-out mix-forming policy.
func FIFO() MixFormer { return fifoFormer{} }

func (fifoFormer) Name() string      { return MixFIFO }
func (fifoFormer) DemandAware() bool { return false }
func (fifoFormer) Form(in FormInput) []int {
	n := batchSize(in)
	sel := in.ints(n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// demandBalance pairs extremes: candidates ordered by demand (heaviest
// first, ties toward the older request), then taken alternately from the
// heavy and light ends. With the platform-default batch width of two this
// co-schedules each round's heaviest remaining network with the lightest,
// so aggregate demand per round hovers near the mean instead of spiking
// when two saturating networks happen to be adjacent in the queue.
type demandBalance struct{}

// DemandBalance returns the demand-balancing mix-forming policy.
func DemandBalance() MixFormer { return demandBalance{} }

func (demandBalance) Name() string      { return MixDemandBalance }
func (demandBalance) DemandAware() bool { return true }
func (demandBalance) Form(in FormInput) []int {
	n := batchSize(in)
	if n == 0 {
		return nil
	}
	order := in.ints(len(in.Eligible))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		da, db := in.Eligible[a].DemandGBps, in.Eligible[b].DemandGBps
		if da != db {
			return before(da > db)
		}
		return cmp.Compare(a, b)
	})
	sel := in.ints(n)[:0]
	for lo, hi, heavy := 0, len(order)-1, true; len(sel) < n && lo <= hi; heavy = !heavy {
		// A light turn only reaches across the queue when the light end is
		// strictly lighter — on a uniform queue reordering buys nothing, so
		// the policy degrades to FIFO.
		if heavy || in.Eligible[order[hi]].DemandGBps >= in.Eligible[order[lo]].DemandGBps {
			sel = append(sel, order[lo])
			lo++
		} else {
			sel = append(sel, order[hi])
			hi--
		}
	}
	return sel
}

// sloAware ranks by deadline slack: the request closest to missing its
// SLO dispatches first. Requests without SLOs sort last (infinite slack);
// among equal slacks the older request wins. The runtime's max-wait bound
// keeps slack-rich requests from starving behind a stream of urgent ones.
type sloAware struct{}

// SLOAware returns the deadline-urgency mix-forming policy.
func SLOAware() MixFormer { return sloAware{} }

func (sloAware) Name() string      { return MixSLOAware }
func (sloAware) DemandAware() bool { return false }
func (sloAware) Form(in FormInput) []int {
	n := batchSize(in)
	if n == 0 {
		return nil
	}
	order := in.ints(len(in.Eligible))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		sa, sb := in.Eligible[a].SlackMs(in.StartMs), in.Eligible[b].SlackMs(in.StartMs)
		if sa != sb {
			return before(sa < sb)
		}
		return cmp.Compare(a, b)
	})
	return order[:n:n]
}

// before turns a strict "a sorts first" test into a comparator result. A
// stable sort only ever asks whether cmp(a, b) < 0, so a comparator built
// on it orders exactly as the boolean less function it replaces, NaNs
// included.
func before(less bool) int {
	if less {
		return -1
	}
	return 1
}

// scoreAware is the capability a mix policy declares to receive a
// FormInput.Score callback; demand-blind, score-blind policies keep the
// hot path free of model work.
type scoreAware interface {
	// ScoreAware reports whether Form reads FormInput.Score.
	ScoreAware() bool
}

// contentionAware scores candidate batches with the analytic contention
// model instead of ranking requests by a scalar signal. Candidates are a
// bounded beam: the three heuristic policies' selections seed it (fifo
// prefix, demand-balance pairing, slo-aware ordering) and lexicographic
// subsets of the eligible queue fill it, so on narrow queues the beam
// covers every possible mix. The batch with the fewest predicted SLO
// violations — then the lowest predicted makespan, then the earliest seed
// — dispatches. With no scorer (or nothing scoreable) the policy degrades
// to demand-balance, the best heuristic.
type contentionAware struct {
	beam int
}

// ContentionAwareMix returns the contention-predicted mix-forming policy
// scoring at most beam candidate batches per round (0 = DefaultScoreBeam).
func ContentionAwareMix(beam int) MixFormer {
	if beam <= 0 {
		beam = DefaultScoreBeam
	}
	return contentionAware{beam: beam}
}

func (contentionAware) Name() string      { return MixContentionAware }
func (contentionAware) DemandAware() bool { return true }
func (contentionAware) ScoreAware() bool  { return true }

func (p contentionAware) Form(in FormInput) []int {
	n := batchSize(in)
	if n == 0 {
		return nil
	}
	fallback := DemandBalance().Form(in)
	if in.Score == nil && in.ScoreMany == nil {
		return fallback
	}
	// One-step lookahead: when the requests a batch defers all fit in the
	// next round, a batch's true cost includes what it leaves behind — the
	// leftover dispatches at this round's end, so a tiny batch that
	// strands a catastrophic pairing loses to a balanced partition. Only
	// exact (single-round) leftovers are scored; deeper queues fall back
	// to in-batch scoring, keeping the per-round cost at two model
	// evaluations per candidate.
	m := len(in.Eligible)
	lookahead := m > n && m <= 2*n
	candidates := p.candidates(in, n, fallback)
	// Two scoring waves — the whole beam, then the scoreable candidates'
	// leftovers — so a bulk scorer probes each wave's unseen mixes
	// concurrently. The scores are identical to candidate-at-a-time
	// serial scoring (a leftover is scored exactly when its candidate
	// scored), only the wall-clock changes.
	scores, oks := scoreBatches(in, candidates)
	var (
		rests   [][]int
		rscores []BatchScore
		roks    []bool
	)
	if lookahead {
		rests = in.lists(len(candidates))
		slab := in.ints(len(candidates) * (m - n))[:0]
		for ci, sel := range candidates {
			rests[ci] = nil
			if oks[ci] {
				start := len(slab)
				slab = appendComplement(slab, sel, m)
				rests[ci] = slab[start:len(slab):len(slab)]
			}
		}
		rscores, roks = scoreBatches(in, rests)
	}
	best, bestViol, bestMs := -1, 0, 0.0
	for ci, sel := range candidates {
		if !oks[ci] {
			continue
		}
		score := scores[ci]
		viol := predictedViolations(in, sel, score, 0)
		span := score.MakespanMs
		if lookahead && roks[ci] {
			viol += predictedViolations(in, rests[ci], rscores[ci], score.MakespanMs)
			span += rscores[ci].MakespanMs
		}
		if best < 0 || viol < bestViol || (viol == bestViol && span < bestMs) {
			best, bestViol, bestMs = ci, viol, span
		}
	}
	if best < 0 {
		return fallback
	}
	return candidates[best]
}

// scoreBatches scores every non-nil sel: one bulk call when ScoreMany is
// wired, a serial Score loop otherwise.
func scoreBatches(in FormInput, sels [][]int) ([]BatchScore, []bool) {
	if in.ScoreMany != nil {
		return in.ScoreMany(sels)
	}
	scores := make([]BatchScore, len(sels))
	oks := make([]bool, len(sels))
	for i, sel := range sels {
		if sel == nil {
			continue
		}
		scores[i], oks[i] = in.Score(sel)
	}
	return scores, oks
}

// appendComplement appends the ascending indices of [0, m) not in sel
// (sel is ascending) to dst.
func appendComplement(dst, sel []int, m int) []int {
	si := 0
	for i := 0; i < m; i++ {
		if si < len(sel) && sel[si] == i {
			si++
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

// candidates builds the beam: heuristic seeds first (the fifo prefix, the
// demand-balance pairing and the slo-aware ordering, canonicalized and
// deduplicated among themselves), then lexicographic n-subsets of the
// eligible indices until the beam is full. Lexicographic subsets are
// distinct by construction, so each is checked only against the seeds,
// which keeps the work linear in the beam width. Every candidate is in
// ascending queue order, carved from one slab; the slab, the beam and the
// running combination come from the round arena when there is one.
func (p contentionAware) candidates(in FormInput, n int, fallback []int) [][]int {
	width := beamWidth(p.beam, len(in.Eligible), n)
	slab := in.ints(width * n)[:0]
	beam := in.lists(width)[:0]
	// Lexicographic n-subsets of [0, len(eligible)): the oldest requests
	// lead, so widening the beam explores pairings without abandoning the
	// queue head. The first subset is the fifo prefix.
	comb := in.ints(n)
	for i := range comb {
		comb[i] = i
	}
	for _, sel := range [...][]int{comb, fallback, SLOAware().Form(in)} {
		if len(sel) != n || len(beam) >= p.beam {
			continue
		}
		start := len(slab)
		slab = append(slab, sel...)
		canon := slab[start:len(slab):len(slab)]
		slices.Sort(canon)
		if slices.ContainsFunc(beam, func(b []int) bool { return slices.Equal(b, canon) }) {
			slab = slab[:start]
			continue
		}
		beam = append(beam, canon)
	}
	seeds := beam
	for len(beam) < p.beam {
		if !slices.ContainsFunc(seeds, func(b []int) bool { return slices.Equal(b, comb) }) {
			start := len(slab)
			slab = append(slab, comb...)
			beam = append(beam, slab[start:len(slab):len(slab)])
		}
		// Advance to the next combination; stop when exhausted.
		i := n - 1
		for i >= 0 && comb[i] == len(in.Eligible)-n+i {
			i--
		}
		if i < 0 {
			break
		}
		comb[i]++
		for j := i + 1; j < n; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
	return beam
}

// beamWidth bounds the beam's size: at most beam candidates, and no more
// than the three seeds plus the C(m, n) subsets of m eligible requests
// (the count saturates once it reaches beam).
func beamWidth(beam, m, n int) int {
	subsets := 1
	for i := 0; i < n && subsets < beam; i++ {
		subsets = subsets * (m - i) / (i + 1)
	}
	return min(beam, 3+subsets)
}

// predictedViolations counts the candidates of sel whose predicted
// completion would miss their SLO — the primary batch-scoring key, since
// violations (not raw makespan) are what serving quality is judged on.
// delayMs shifts the round start (lookahead scores the deferred batch at
// the first batch's predicted end).
func predictedViolations(in FormInput, sel []int, score BatchScore, delayMs float64) int {
	v := 0
	for i, idx := range sel {
		if i >= len(score.EndMs) {
			break
		}
		c := in.Eligible[idx]
		if c.SLOMs > 0 && in.StartMs+delayMs+score.EndMs[i]-c.ArrivalMs > c.SLOMs {
			v++
		}
	}
	return v
}

// batchSize clamps the round width to the eligible count.
func batchSize(in FormInput) int {
	n := in.MaxBatch
	if n > len(in.Eligible) {
		n = len(in.Eligible)
	}
	if n < 0 {
		n = 0
	}
	return n
}

// MixedDemandTenants is the canonical mixed-memory-demand workload the
// mix-forming demos, acceptance tests and the BENCH_serve.json baseline
// all serve: four in-phase periodic tenants whose networks span the Orin
// demand range (SqueezeNet ~91 GB/s down to ResNet18 ~71 GB/s), so every
// 8 ms burst offers a real pairing choice. The demand-balanced partition
// (SqueezeNet+ResNet18, Inception+ResNet152) has a ~23% lower summed
// round makespan than the arrival-order partition, which is where the
// fifo-vs-demand-balance win comes from.
func MixedDemandTenants() []TenantSpec {
	return []TenantSpec{
		{Name: "squeeze", Network: "SqueezeNet", PeriodMs: 8, SLOMs: 7},
		{Name: "incept", Network: "Inception", PeriodMs: 8, SLOMs: 7},
		{Name: "res152", Network: "ResNet152", PeriodMs: 8, SLOMs: 7},
		{Name: "res18", Network: "ResNet18", PeriodMs: 8, SLOMs: 7},
	}
}

// MixPolicies lists the built-in mix-forming policy names.
func MixPolicies() []string {
	return []string{MixFIFO, MixDemandBalance, MixSLOAware, MixContentionAware}
}

// MixPolicyName canonicalizes a policy name ("" means the FIFO default).
func MixPolicyName(name string) string {
	if name == "" {
		return MixFIFO
	}
	return name
}

// NewMixFormer returns the named built-in policy; "" selects FIFO.
func NewMixFormer(name string) (MixFormer, error) {
	switch MixPolicyName(name) {
	case MixFIFO:
		return FIFO(), nil
	case MixDemandBalance:
		return DemandBalance(), nil
	case MixSLOAware:
		return SLOAware(), nil
	case MixContentionAware:
		return ContentionAwareMix(0), nil
	}
	return nil, fmt.Errorf("serve: unknown mix policy %q (want %s)", name, strings.Join(MixPolicies(), ", "))
}

// composeBatch turns a policy's ranked selection into the round's final
// pick set, in queue order. The starvation bound claims the first slot:
// when the oldest eligible request has been passed over for maxWait
// consecutive rounds it is forced into this batch ahead of the policy's
// ranking (one forced slot per round — every queued request becomes the
// oldest eventually, so progress is bounded without collapsing the whole
// batch back to FIFO under deep queues). The policy's ranking fills the
// remaining slots, and queue order tops up anything the policy left
// unfilled: the round always dispatches min(maxBatch, len(eligible))
// requests, so no policy can stall the queue. Returns an error on an
// out-of-range or duplicate index — a broken policy fails loudly, not
// silently. The picks are carved from s and stay valid until its next use.
func composeBatch(sel []int, eligible []Candidate, maxBatch, maxWait int, s *composeScratch) ([]int, error) {
	n := maxBatch
	if n > len(eligible) {
		n = len(eligible)
	}
	if n <= 0 {
		return nil, nil
	}
	taken, seen, picks := s.reset(len(eligible), n)
	add := func(i int) {
		if len(picks) < n && !taken[i] {
			taken[i] = true
			picks = append(picks, i)
		}
	}
	if len(eligible) > 0 && eligible[0].WaitedRounds >= maxWait {
		add(0)
	}
	for _, i := range sel {
		if i < 0 || i >= len(eligible) {
			return nil, fmt.Errorf("selection index %d out of range [0,%d)", i, len(eligible))
		}
		if seen[i] {
			return nil, fmt.Errorf("selection index %d duplicated", i)
		}
		seen[i] = true
		add(i)
	}
	for i := 0; len(picks) < n; i++ {
		add(i)
	}
	sort.Ints(picks)
	return picks, nil
}

// composeScratch is composeBatch's reusable state: the per-candidate taken
// and seen marks and the pick list. A Runtime keeps one, so composing a
// warm round's batch allocates nothing.
type composeScratch struct {
	taken, seen []bool
	picks       []int
}

// reset returns cleared taken and seen marks for m candidates and an empty
// pick list with room for n picks, growing the buffers when they are short.
func (s *composeScratch) reset(m, n int) (taken, seen []bool, picks []int) {
	if cap(s.taken) < m {
		s.taken, s.seen = make([]bool, m), make([]bool, m)
	}
	if cap(s.picks) < n {
		s.picks = make([]int, 0, n)
	}
	taken, seen = s.taken[:m], s.seen[:m]
	clear(taken)
	clear(seen)
	return taken, seen, s.picks[:0]
}
