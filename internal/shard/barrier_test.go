package shard

import (
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"haxconn/internal/serve"
)

// oracleExports is the barrier's export selection before each cache kept
// an export log: a full Export of every platform cache, filtered to the
// solved entries the shard has not yet sent or received, in Export's
// order. It must run before the barrier's own selection marks them sent.
func oracleExports(st *shardState) []entryExport {
	var out []entryExport
	f := st.drv.Fleet()
	for _, platform := range f.CachePlatforms() {
		cache := f.Cache(platform)
		if cache == nil {
			continue
		}
		snap := cache.Export()
		for _, e := range snap.Entries {
			if !e.Solved {
				continue
			}
			key := strings.Join(e.Networks, "+") + "|" + snap.Objective
			if st.sent[gossipID{platform, key}] {
				continue
			}
			out = append(out, entryExport{Platform: platform, Key: key, Networks: e.Networks,
				Assign: e.Assign, Origin: st.idx})
		}
	}
	return out
}

// withBarrierCheck runs serve with check called at every shard's every
// barrier, after the shard advanced and before its report is built, and
// with the report afterwards. The shards call it concurrently.
func withBarrierCheck(t *testing.T, check func(st *shardState) func(rep *report), serve func()) {
	t.Helper()
	orig := barrierReport
	barrierReport = func(p *Plane, st *shardState, remaining bool) (*report, error) {
		after := check(st)
		rep, err := orig(p, st, remaining)
		if err == nil {
			after(rep)
		}
		return rep, err
	}
	defer func() { barrierReport = orig }()
	serve()
}

// TestBarrierExportsMatchFullExport: at every barrier of region runs (K=2
// and K=4) and of TestShardedHandoff's configuration, the exports read from
// the caches' export logs equal oracleExports — keys, order, networks and
// rows. A transition that makes an entry exportable without logging it
// shows here as an entry the oracle exports and the log does not.
func TestBarrierExportsMatchFullExport(t *testing.T) {
	type run struct {
		name  string
		cfg   Config
		trace func() (serve.Trace, error)
	}
	var runs []run
	for _, seed := range []int64{21, 601, 602, 603, 604, 605} {
		seed := seed
		for _, k := range []int{2, 4} {
			runs = append(runs, run{"region", Config{Control: DemoRegionControl(), Shards: k},
				func() (serve.Trace, error) { return DemoRegionTrace(seed) }})
		}
	}
	handoff := demoControl()
	handoff.MaxDevices = 4
	runs = append(runs, run{"handoff", Config{Control: handoff, Shards: 4, HandoffBacklogMs: 15},
		func() (serve.Trace, error) { return DemoShardTrace(11) }})

	for _, r := range runs {
		tr, err := r.trace()
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var barriers, exported, wrong atomic.Int64
		var sum *Summary
		withBarrierCheck(t, func(st *shardState) func(*report) {
			want := oracleExports(st)
			return func(rep *report) {
				barriers.Add(1)
				exported.Add(int64(len(rep.exports)))
				if !reflect.DeepEqual(rep.exports, want) && wrong.Add(1) <= 3 {
					t.Errorf("%s K=%d shard %d: barrier exports %+v, full export gives %+v",
						r.name, r.cfg.Shards, st.idx, rep.exports, want)
				}
			}
		}, func() {
			sum, err = p.Serve(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if barriers.Load() == 0 || exported.Load() == 0 {
			t.Errorf("%s K=%d: %d barriers exported %d entries; the check saw nothing",
				r.name, r.cfg.Shards, barriers.Load(), exported.Load())
		}
		if int(exported.Load()) != sum.GossipTxEntries {
			t.Errorf("%s K=%d: checked %d exports, summary counts %d", r.name, r.cfg.Shards,
				exported.Load(), sum.GossipTxEntries)
		}
	}
}

// TestShardsReadCallerTrace: every shard's driver reads the caller's own
// backing array, and the caller's trace is unchanged after Serve — also
// when the trace is unsorted and handoffs move requests between shards.
func TestShardsReadCallerTrace(t *testing.T) {
	cfg := demoControl()
	cfg.MaxDevices = 4
	for _, shuffled := range []bool{false, true} {
		tr := shardTrace(t, 11)
		if shuffled {
			rand.New(rand.NewSource(11)).Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })
		}
		want := append(serve.Trace(nil), tr...)
		p, err := New(Config{Control: cfg, Shards: 4, HandoffBacklogMs: 15})
		if err != nil {
			t.Fatal(err)
		}
		var checked, foreign atomic.Int64
		var sum *Summary
		withBarrierCheck(t, func(st *shardState) func(*report) {
			checked.Add(1)
			if got := st.drv.Trace(); len(got) != len(tr) || &got[0] != &tr[0] {
				foreign.Add(1)
			}
			return func(*report) {}
		}, func() {
			sum, err = p.Serve(tr)
		})
		if err != nil {
			t.Fatal(err)
		}
		if checked.Load() == 0 || foreign.Load() != 0 {
			t.Errorf("shuffled=%v: %d of %d barrier checks found a driver reading another array",
				shuffled, foreign.Load(), checked.Load())
		}
		if len(sum.Handoffs) == 0 {
			t.Errorf("shuffled=%v: no handoff; the test would not cover one", shuffled)
		}
		if !reflect.DeepEqual(tr, want) {
			t.Errorf("shuffled=%v: Serve modified the caller's trace", shuffled)
		}
	}
}
