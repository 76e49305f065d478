package control

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"haxconn/internal/fleet"
	"haxconn/internal/schedule"
	"haxconn/internal/serve"
)

// TestTenantWindowP99MatchesOracle: p99 read from the window's sorted view
// equals copying the last completions and sorting the copy, bit for bit,
// while the window fills, after it wraps and after a reset; and once warm
// it allocates nothing. The oracle keeps its own history, so an insert or
// evict that disturbed the sorted view would show up in later
// comparisons.
func TestTenantWindowP99MatchesOracle(t *testing.T) {
	const size = DefaultSLOWindow
	oracle := func(history []float64) float64 {
		if len(history) > size {
			history = history[len(history)-size:]
		}
		lats := append([]float64(nil), history...)
		sort.Float64s(lats)
		return schedule.Percentile(lats, 0.99)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newTenantWindow(size)
		var history []float64
		for i := 0; i < 3*size+5; i++ {
			if i == 2*size+3 {
				w.reset()
				history = history[:0]
			}
			// Rounded latencies repeat, so evictions meet ties.
			lat := math.Round(20 * rng.ExpFloat64())
			w.add(serve.Completion{Request: serve.Request{Network: "VGG19"}, LatencyMs: lat, Violated: lat > 20})
			history = append(history, lat)
			if got, want := w.p99(), oracle(history); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d, completion %d (window %d of %d): p99 %v, oracle %v", seed, i, w.len(), size, got, want)
			}
			// The whole sorted view and the violation count track the window,
			// not just its maximum (which is p99 below 100 entries).
			win := history[max(0, len(history)-size):]
			want := append([]float64(nil), win...)
			sort.Float64s(want)
			if !slices.Equal(w.sorted, want) {
				t.Fatalf("seed %d, completion %d: sorted view %v, window sorted %v", seed, i, w.sorted, want)
			}
			v := 0
			for _, l := range win {
				if l > 20 {
					v++
				}
			}
			if got, want := w.violationRate(), float64(v)/float64(len(win)); got != want {
				t.Fatalf("seed %d, completion %d: violation rate %v, want %v", seed, i, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { w.p99() }); allocs != 0 {
			t.Errorf("seed %d: warm p99 made %.1f allocations, want 0", seed, allocs)
		}
	}
}

// TestIngestFoldsEachCompletionOnce: a tick folds the completions the
// fleet streamed since the last tick into the tenant windows once each,
// device by device in pool order and each device's in completion order,
// skipping rejections; a second tick with nothing new folds nothing.
func TestIngestFoldsEachCompletionOnce(t *testing.T) {
	cfg := demoConfig()
	cfg.Fleet.Devices = []fleet.DeviceSpec{{Platform: "Orin", Count: 2}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRun(c.Config())
	if err != nil {
		t.Fatal(err)
	}
	served := func(lat float64) serve.Completion {
		return serve.Completion{Request: serve.Request{Tenant: "a", Network: "VGG19", SLOMs: 10}, LatencyMs: lat}
	}
	r.completed(1, served(3))
	r.completed(0, served(1))
	r.completed(1, serve.Completion{Request: serve.Request{Tenant: "a", Network: "VGG19"}, Rejected: true})
	r.completed(0, served(2))
	r.ingest()
	r.ingest()
	w := r.tenants["a"]
	if w == nil {
		t.Fatal("no window for tenant a")
	}
	if w.len() != 3 {
		t.Fatalf("window holds %d completions, want 3", w.len())
	}
	if got, want := w.latencies[:3], []float64{1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("window order %v, want device 0's completions, then device 1's: %v", got, want)
	}
}

// TestGroupByDeviceMatchesTenantsOn: bestDevice's one-scan grouping lists,
// for every device, exactly tenantsOn's sorted tenants — across random
// tables with unassigned tenants, empty devices and migrations, reusing
// one set of lists throughout.
func TestGroupByDeviceMatchesTenantsOn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := newStickyTable()
	var groups [][]string
	for round := 0; round < 50; round++ {
		devices := 1 + rng.Intn(8)
		for k := rng.Intn(12); k > 0; k-- {
			name := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(3)))
			switch rng.Intn(4) {
			case 0:
				table.unassign(name)
			default:
				table.assign(name, rng.Intn(devices))
			}
		}
		groups = table.groupByDevice(devices, groups)
		if len(groups) != devices {
			t.Fatalf("round %d: %d groups for %d devices", round, len(groups), devices)
		}
		for i := range groups {
			if want := table.tenantsOn(i); !slices.Equal(groups[i], want) {
				t.Fatalf("round %d device %d: grouped %v, tenantsOn %v", round, i, groups[i], want)
			}
		}
	}
}

// TestIngestKeepsTenantNamesSorted: the run's tenant names, which migrate
// judges in order, are the keys of its windows, sorted, as tenants first
// complete in any order.
func TestIngestKeepsTenantNamesSorted(t *testing.T) {
	cfg := demoConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRun(c.Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m", "c", "x", "c", "a", "m", "q"} {
		r.completed(0, serve.Completion{Request: serve.Request{Tenant: name, Network: "VGG19", SLOMs: 10}, LatencyMs: 1})
		r.ingest()
		keys := make([]string, 0, len(r.tenants))
		for k := range r.tenants {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(r.names, keys) {
			t.Fatalf("after %s: names %v, window keys %v", name, r.names, keys)
		}
	}
}
