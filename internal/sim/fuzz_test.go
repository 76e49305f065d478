package sim

import (
	"math"
	"sort"
	"testing"

	"haxconn/internal/contention"
	"haxconn/internal/soc"
)

// sortSliceFairShare is contention.FairShare as it was written before it
// became allocation-free: indices sorted by demand with sort.Slice. It is
// the oracle for contention.FairShareInto, equal demands included — the
// order ties are served in decides the last bits of every share.
func sortSliceFairShare(demands []float64, capacity float64) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	idx := make([]int, len(demands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return demands[idx[a]] < demands[idx[b]] })
	remaining := capacity
	for pos, i := range idx {
		share := remaining / float64(len(idx)-pos)
		give := math.Min(demands[i], share)
		if give < 0 {
			give = 0
		}
		alloc[i] = give
		remaining -= give
	}
	return alloc
}

// oracleGroundTruth is GroundTruth arbitrating with sortSliceFairShare.
type oracleGroundTruth struct{ satBW float64 }

func (o oracleGroundTruth) Slowdowns(demands, intensities, out []float64) {
	alloc := sortSliceFairShare(demands, o.satBW)
	for i := range demands {
		out[i] = contention.Slowdown(demands[i], intensities[i], alloc[i])
	}
}

// fuzzValues are the task parameters a fuzz byte picks from: ordinary
// figures, repeats (so demands tie), zero, the tiny and the huge, and
// values the simulator must reject.
var fuzzValues = [...]float64{0, 1, 1, 2.5, 10, 10, 40, 150, 1e-12, 1e6, 1e300, 0.3, -1, math.NaN(), math.Inf(1), 0.75}

// fuzzWorkload decodes a small, possibly hostile workload: up to 4
// accelerators (one index past the platform may appear), up to 4 streams
// of up to 6 tasks with any dependency, and up to 2 backgrounds.
func fuzzWorkload(data []byte) (*soc.Platform, Workload) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	p := soc.Orin()
	na := 1 + next()%4
	for len(p.Accels) < na {
		p.Accels = append(p.Accels, p.Accels[len(p.Accels)%3])
	}
	p.Accels = p.Accels[:na]
	var w Workload
	streams := 1 + next()%4
	for s := 0; s < streams; s++ {
		var st Stream
		if dep := next() % 8; dep < streams && next()%2 == 0 {
			st.After = append(st.After, dep)
		}
		for k := next() % 7; k > 0; k-- {
			intensity := float64(next()%5) / 4
			if next()%16 == 0 {
				intensity = fuzzValues[next()%len(fuzzValues)]
			}
			st.Tasks = append(st.Tasks, Task{
				Accel:        next() % (na + 1) % (na + next()%2),
				BaseMs:       fuzzValues[next()%len(fuzzValues)],
				DemandGBps:   fuzzValues[next()%len(fuzzValues)],
				MemIntensity: intensity,
			})
		}
		w.Streams = append(w.Streams, st)
	}
	for b := next() % 3; b > 0; b-- {
		w.Background = append(w.Background, Background{Label: "bg", DemandGBps: fuzzValues[next()%len(fuzzValues)]})
	}
	return p, w
}

// limitFor derives a run limit from a fuzz byte and the full makespan m:
// below it, at it, one ulp above it, well above it, none, or a fixed
// value (negative, zero, tiny, huge or NaN).
func limitFor(b byte, m float64) float64 {
	switch b % 8 {
	case 0:
		return m / 2
	case 1:
		return m * 0.999
	case 2:
		return m
	case 3:
		return math.Nextafter(m, math.Inf(1))
	case 4:
		return 2 * m
	case 5:
		return math.Inf(1)
	default:
		return fuzzValues[int(b/8)%len(fuzzValues)]
	}
}

// FuzzSimRun: on any small workload, under ground truth and a PCCS model,
// the simulator errors or returns finite results; the untimed run equals
// Run bit for bit; a run limited by a fuzzed limit either equals the
// untimed run bit for bit or is cut, and a cut run's full makespan is at
// least the limit; and the allocation-free ground-truth arbitration equals
// the sort.Slice oracle, both on the workload's demands and over the whole
// simulated timeline.
func FuzzSimRun(f *testing.F) {
	f.Add([]byte{2, 2, 0, 1, 3, 2, 0, 0, 5, 7, 1, 0, 0, 1, 6, 7, 1})
	f.Add([]byte{3, 3, 1, 0, 4, 0, 0, 4, 5, 0, 1, 0, 9, 5, 2, 1, 1, 0, 4, 5, 1, 1, 2, 2, 7, 7, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 10, 11, 0})
	f.Add([]byte{1, 1, 9, 0, 6, 3, 0, 0, 3, 4, 2, 0, 1, 4, 4, 4, 0, 0, 7, 4, 1, 0, 1, 6, 4, 2, 13})
	// An empty stream blocked on another stream while the limit is
	// checked: it has no task to bound.
	f.Add([]byte("0120"))
	pccs, err := contention.FitPCCS(soc.Orin().SatBW(), 16)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, w := fuzzWorkload(data)
		var demands []float64
		for _, s := range w.Streams {
			for _, task := range s.Tasks {
				demands = append(demands, task.DemandGBps)
			}
		}
		for _, b := range w.Background {
			demands = append(demands, b.DemandGBps)
		}
		got := make([]float64, len(demands))
		contention.FairShareInto(demands, p.SatBW(), got)
		for i, want := range sortSliceFairShare(demands, p.SatBW()) {
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("FairShareInto(%v)[%d] = %v, sort.Slice oracle %v", demands, i, got[i], want)
			}
		}

		// The limited run reads checked, summed streams; a stream
		// CheckTasks rejects is one Run rejects too.
		checked := true
		for si := range w.Streams {
			if CheckTasks(p, si, w.Streams[si].Tasks) != nil {
				checked = false
			}
			w.Streams[si].SumRest()
		}
		var limitByte byte
		if len(data) > 0 {
			limitByte = data[len(data)-1]
		}
		var e, le Engine
		for _, arb := range []Arbiter{gt(p), ModelArbiter{Model: pccs}} {
			want, err := Run(p, w, arb)
			unt, uerr := e.RunUntimed(p, w, arb)
			if (err == nil) != (uerr == nil) || (err != nil && err.Error() != uerr.Error()) {
				t.Fatalf("%T: Run error %v, RunUntimed error %v", arb, err, uerr)
			}
			if !checked {
				if err == nil {
					t.Fatalf("%T: Run accepted a stream CheckTasks rejects", arb)
				}
				continue
			}
			m := math.NaN()
			if err == nil {
				m = want.MakespanMs
			}
			limit := limitFor(limitByte, m)
			lim, cut, lerr := le.RunLimited(p, w, arb, limit)
			switch {
			case cut && lerr != nil:
				t.Fatalf("%T: limited run both cut and failed: %v", arb, lerr)
			case cut && err == nil && !(m >= limit):
				t.Fatalf("%T: cut at limit %v, full makespan %v", arb, limit, m)
			case !cut && (lerr == nil) != (uerr == nil):
				t.Fatalf("%T: limited run error %v, RunUntimed error %v", arb, lerr, uerr)
			case !cut && lerr != nil && lerr.Error() != uerr.Error():
				t.Fatalf("%T: limited run error %v, RunUntimed error %v", arb, lerr, uerr)
			case !cut && lerr == nil:
				for _, v := range [][2][]float64{
					{{lim.MakespanMs}, {unt.MakespanMs}},
					{lim.StreamStartMs, unt.StreamStartMs},
					{lim.StreamEndMs, unt.StreamEndMs},
					{lim.BusyMs, unt.BusyMs},
				} {
					for i := range v[1] {
						if math.Float64bits(v[0][i]) != math.Float64bits(v[1][i]) {
							t.Fatalf("%T: uncut run under limit %v: %v, untimed %v", arb, limit, v[0], v[1])
						}
					}
				}
			}
			if err != nil {
				continue
			}
			finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
			if !finite(want.MakespanMs) || want.MakespanMs < 0 {
				t.Fatalf("%T: makespan %v", arb, want.MakespanMs)
			}
			same := func(what string, a, b []float64) {
				if len(a) != len(b) {
					t.Fatalf("%T %s: %d values untimed, %d from Run", arb, what, len(a), len(b))
				}
				for i := range a {
					if !finite(b[i]) {
						t.Fatalf("%T %s[%d] = %v", arb, what, i, b[i])
					}
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("%T %s[%d]: untimed %v, Run %v", arb, what, i, a[i], b[i])
					}
				}
			}
			same("makespan", []float64{unt.MakespanMs}, []float64{want.MakespanMs})
			same("stream starts", unt.StreamStartMs, want.StreamStartMs)
			same("stream ends", unt.StreamEndMs, want.StreamEndMs)
			same("busy", unt.BusyMs, want.BusyMs)
			if len(unt.Records) != 0 || len(unt.Intervals) != 0 {
				t.Fatalf("%T: untimed run kept %d records and %d intervals", arb, len(unt.Records), len(unt.Intervals))
			}
		}

		want, err := Run(p, w, oracleGroundTruth{p.SatBW()})
		got2, gerr := Run(p, w, gt(p))
		if (err == nil) != (gerr == nil) {
			t.Fatalf("oracle arbitration error %v, GroundTruth error %v", err, gerr)
		}
		if err != nil {
			return
		}
		if math.Float64bits(got2.MakespanMs) != math.Float64bits(want.MakespanMs) || len(got2.Records) != len(want.Records) {
			t.Fatalf("GroundTruth makespan %v over %d tasks, oracle %v over %d", got2.MakespanMs, len(got2.Records), want.MakespanMs, len(want.Records))
		}
		for i := range want.Records {
			if got2.Records[i] != want.Records[i] {
				t.Fatalf("task record %d: GroundTruth %+v, oracle %+v", i, got2.Records[i], want.Records[i])
			}
		}
	})
}

// GroundTruth arbitrates a platform's accelerators plus backgrounds, ties
// included, without allocating.
func TestGroundTruthAllocatesNothing(t *testing.T) {
	arb := GroundTruth{SatBW: plat().SatBW()}
	for _, n := range []int{1, 3, 12, 16} {
		demands := make([]float64, n)
		intensities := make([]float64, n)
		for i := range demands {
			demands[i] = float64(40 + 10*(i%3))
			intensities[i] = 0.5
		}
		out := make([]float64, n)
		if allocs := testing.AllocsPerRun(100, func() { arb.Slowdowns(demands, intensities, out) }); allocs != 0 {
			t.Errorf("%d consumers: %v allocations per arbitration, want 0", n, allocs)
		}
		want := sortSliceFairShare(demands, arb.SatBW)
		for i := range demands {
			if s := contention.Slowdown(demands[i], intensities[i], want[i]); math.Float64bits(out[i]) != math.Float64bits(s) {
				t.Errorf("%d consumers: slowdown %d = %v, oracle %v", n, i, out[i], s)
			}
		}
	}
}
