package serve

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// mergeTenants and mergeNetworks are what FuzzSummaryMerge draws from: an
// empty tenant and "TOTAL" (both rejected by admission, but Summarize
// folds whatever it is given), and an empty network and one literally
// named "mixed", so the label rule's corners are reachable.
var (
	mergeTenants  = []string{"a", "b", "c", "", totalName}
	mergeNetworks = []string{"VGG19", "ResNet152", "", mixedNetwork}
)

// decodeDevices spreads the completions encoded in data over 1–8 devices,
// five bytes each: tenant, network, flags (bit 0 rejected, bit 1
// violated, the rest the device), and a 16-bit latency code. Equal codes
// tie; the scale 1.1/16 is inexact in binary, so sums round and a mean
// added in another order shows in its last bits.
func decodeDevices(data []byte) [][]Completion {
	if len(data) == 0 {
		return [][]Completion{nil}
	}
	devs := make([][]Completion, 1+int(data[0])%8)
	data = data[1:]
	for i := 0; len(data) >= 5; i++ {
		b := data[:5]
		data = data[5:]
		lat := float64(uint16(b[3])|uint16(b[4])<<8) * 1.1 / 16
		c := Completion{
			Request: Request{ID: i, Tenant: mergeTenants[int(b[0])%len(mergeTenants)],
				Network: mergeNetworks[int(b[1])%len(mergeNetworks)], SLOMs: 10},
			Rejected: b[2]&1 != 0,
		}
		if c.Rejected {
			c.RejectReason = RejectQueueFull
		} else {
			c.StartMs, c.EndMs, c.LatencyMs = float64(i), float64(i)+lat, lat
			c.Violated = b[2]&2 != 0
		}
		d := int(b[2]>>2) % len(devs)
		devs[d] = append(devs[d], c)
	}
	return devs
}

// diffStats reports the first field where two rows differ: float fields
// compare bit for bit, except MeanMs, which may differ by meanTol
// relative.
func diffStats(got, want TenantStats, meanTol float64) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		g, w := gv.Field(i), wv.Field(i)
		if g.Kind() != reflect.Float64 {
			if g.Interface() != w.Interface() {
				return fmt.Sprintf("%s: %v, want %v", name, g.Interface(), w.Interface())
			}
			continue
		}
		gf, wf := g.Float(), w.Float()
		if name == "MeanMs" && meanTol > 0 {
			if math.Abs(gf-wf) > meanTol*math.Max(math.Abs(gf), math.Abs(wf)) {
				return fmt.Sprintf("MeanMs: %v, want %v within %g relative", gf, wf, meanTol)
			}
			continue
		}
		if math.Float64bits(gf) != math.Float64bits(wf) {
			return fmt.Sprintf("%s: %v, want %v bit for bit", name, gf, wf)
		}
	}
	return ""
}

// checkMerged compares a merged summary with one folded over the
// concatenation.
func checkMerged(t *testing.T, mode string, got, want *Summary, meanTol float64) {
	t.Helper()
	if got.Policy != want.Policy || got.Platform != want.Platform || got.Objective != want.Objective ||
		math.Float64bits(got.DurationMs) != math.Float64bits(want.DurationMs) {
		t.Fatalf("%s: header %q/%q/%q/%v, want %q/%q/%q/%v", mode, got.Policy, got.Platform, got.Objective,
			got.DurationMs, want.Policy, want.Platform, want.Objective, want.DurationMs)
	}
	if len(got.Tenants) != len(want.Tenants) {
		t.Fatalf("%s: %d tenant rows, want %d", mode, len(got.Tenants), len(want.Tenants))
	}
	for i := range want.Tenants {
		if d := diffStats(got.Tenants[i], want.Tenants[i], meanTol); d != "" {
			t.Fatalf("%s: tenant %q %s", mode, want.Tenants[i].Tenant, d)
		}
	}
	if d := diffStats(got.Total, want.Total, meanTol); d != "" {
		t.Fatalf("%s: TOTAL %s", mode, d)
	}
}

// FuzzSummaryMerge: per-device tallies merge into exactly the summary one
// fold over the devices' completions, concatenated in device order, gives
// — every field bit for bit on the exact path (means included: the merge
// re-adds each device's latencies in completion order), and every field
// but MeanMs bit for bit in sketch mode, where the mean adds per-device
// sums and may move in its last bits.
func FuzzSummaryMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 16, 0})
	f.Add([]byte{3, 0, 0, 0, 16, 0, 1, 1, 4, 32, 0, 2, 2, 9, 0, 1, 0, 0, 1, 16, 0})
	// One tenant whose devices see "", then VGG19: the labels must merge
	// as one fold sees them ("mixed" after VGG19 on device 0).
	f.Add([]byte{2, 0, 0, 0, 8, 0, 0, 2, 4, 8, 0, 0, 0, 4, 8, 0})
	// Ties across devices, a rejection, a violation, and an empty device.
	f.Add([]byte{7, 1, 1, 0, 80, 0, 1, 1, 4, 80, 0, 1, 1, 9, 80, 0, 2, 3, 2, 80, 0, 4, 0, 17, 1, 2, 3, 0, 12, 255, 255})
	// One tenant on two devices whose mean rounds differently when the
	// devices' sums are added instead of their latencies.
	f.Add([]byte{1, 0, 0, 0, 0x25, 0x3f, 0, 0, 4, 0xe2, 0x8b, 0, 0, 0, 0xf, 0x7, 0, 0, 4, 0xda, 0x8,
		0, 0, 0, 0x68, 0xd2, 0, 0, 4, 0x92, 0x1e})
	f.Fuzz(func(t *testing.T, data []byte) {
		devs := decodeDevices(data)
		var all []Completion
		exact, sketch := make([]*Tally, len(devs)), make([]*Tally, len(devs))
		for d, cs := range devs {
			all = append(all, cs...)
			exact[d], sketch[d] = newTally(false), newTally(true)
			for _, c := range cs {
				exact[d].observe(c)
				sketch[d].observe(c)
			}
		}
		const pol, platform, obj = ContentionAware, "Orin|Orin", schedule.MinMaxLatency
		checkMerged(t, "exact", SummarizeTallies(exact, pol, platform, obj), Summarize(all, pol, platform, obj), 0)
		checkMerged(t, "sketch", SummarizeTallies(sketch, pol, platform, obj), SummarizeSketch(all, pol, platform, obj), 1e-9)
		// Merging reads the tallies without consuming them: a device's own
		// summary and a second merge are unchanged.
		for d, cs := range devs {
			checkMerged(t, "device", exact[d].summarize(pol, platform, obj), Summarize(cs, pol, platform, obj), 0)
		}
		checkMerged(t, "again", SummarizeTallies(exact, pol, platform, obj), Summarize(all, pol, platform, obj), 0)
	})
}

// TestStandaloneRuntimeKeepsLog: a runtime nothing subscribes to logs
// every completion, in processing order, whether Serve drives it or Offer
// and Step drive it after Reset; its tally folds the same completions, so
// Summary equals Summarize over the log. A subscriber replaces the log:
// it sees every completion once, and Completions is nil.
func TestStandaloneRuntimeKeepsLog(t *testing.T) {
	tr, err := Generate(twoTenants(), 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Platform: soc.Orin(), SolverTimeScale: 50, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkLog := func(how string, cs []Completion) {
		t.Helper()
		if len(cs) != len(tr) {
			t.Fatalf("%s: logged %d completions for %d requests", how, len(cs), len(tr))
		}
		seen := map[int]bool{}
		for _, c := range cs {
			if seen[c.ID] {
				t.Fatalf("%s: request %d logged twice", how, c.ID)
			}
			seen[c.ID] = true
		}
		want := Summarize(cs, ContentionAware, "Orin", schedule.MinMaxLatency)
		got := rt.Summary()
		if d := diffStats(got.Total, want.Total, 0); d != "" {
			t.Fatalf("%s: Summary's TOTAL differs from Summarize over the log: %s", how, d)
		}
	}
	sum, err := rt.Serve(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total.Rejected == 0 {
		t.Fatal("no rejection: the log would not cover one")
	}
	checkLog("Serve", rt.Completions())

	rt.Reset()
	if rt.Completions() != nil {
		t.Fatal("Reset kept the log")
	}
	next := 0
	for next < len(tr) || rt.QueueDepth() > 0 {
		if next < len(tr) && tr[next].ArrivalMs <= rt.NextStartMs() {
			if _, err := rt.Offer(tr[next]); err != nil {
				t.Fatal(err)
			}
			next++
			continue
		}
		if err := rt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	checkLog("Offer/Step", rt.Completions())

	var streamed []Completion
	rt.Subscribe(func(c Completion) { streamed = append(streamed, c) })
	if _, err := rt.Serve(tr); err != nil {
		t.Fatal(err)
	}
	if rt.Completions() != nil {
		t.Error("a subscribed runtime kept a log")
	}
	checkLog("subscriber", streamed)
}
