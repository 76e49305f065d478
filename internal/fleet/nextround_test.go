package fleet_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"haxconn/internal/control"
	"haxconn/internal/fleet"
	"haxconn/internal/serve"
	"haxconn/internal/shard"
)

// TestNextRoundMatchesScan checks the fleet's cached round starts at every
// event of seeded fleet, control and region runs: each NextRound answer
// must equal ScanNextRound's, which asks every device afresh. The control
// run grows the pool with new platforms, drains and removes devices; the
// region run steps four shards' fleets concurrently.
func TestNextRoundMatchesScan(t *testing.T) {
	var events atomic.Int64
	fleet.SetNextRoundHook(func(f *fleet.Fleet, di int, tDev float64) {
		events.Add(1)
		if wi, wt := f.ScanNextRound(); di != wi || (tDev != wt && !(math.IsNaN(tDev) && math.IsNaN(wt))) {
			// A stale start can keep a driver stepping an idle device
			// forever, so stop the run here.
			panic(fmt.Sprintf("NextRound = (%d, %g), scan = (%d, %g)", di, tDev, wi, wt))
		}
	})
	defer fleet.SetNextRoundHook(nil)

	runs := []struct {
		name  string
		serve func(seed int64) error
	}{
		{"fleet", func(seed int64) error {
			tr, err := serve.Generate([]serve.TenantSpec{
				{Name: "alice", Network: "VGG19", RateRPS: 140, SLOMs: 10},
				{Name: "bob", Network: "ResNet152", RateRPS: 140, SLOMs: 12},
			}, 1000, seed)
			if err != nil {
				return err
			}
			f, err := fleet.New(fleet.Config{
				Devices:   []fleet.DeviceSpec{{Platform: "Orin", Count: 2}, {Platform: "Xavier"}},
				Placement: fleet.LeastLoaded(),
				Device:    serve.Config{SolverTimeScale: 50},
			})
			if err != nil {
				return err
			}
			if _, err = f.Serve(tr); err != nil {
				return err
			}
			// A rewind with work still queued must refresh every start.
			for _, q := range tr[:4] {
				if _, _, err := f.Offer(q); err != nil {
					return err
				}
			}
			f.Rewind()
			f.NextRound()
			return nil
		}},
		{"control", func(seed int64) error {
			tr, err := control.DemoBurstTrace(seed)
			if err != nil {
				return err
			}
			c, err := control.New(control.Config{
				Fleet: fleet.Config{
					Devices: []fleet.DeviceSpec{{Platform: "Orin"}},
					Device:  serve.Config{SolverTimeScale: 50},
				},
				MaxDevices:    3,
				GrowPlatforms: []string{"Xavier", "SD865"},
			})
			if err != nil {
				return err
			}
			_, err = c.Serve(tr)
			return err
		}},
		{"region", func(seed int64) error {
			tr, err := shard.DemoRegionTrace(seed)
			if err != nil {
				return err
			}
			p, err := shard.New(shard.Config{Control: shard.DemoRegionControl(), Shards: 4})
			if err != nil {
				return err
			}
			_, err = p.Serve(tr)
			return err
		}},
	}
	for _, run := range runs {
		for _, seed := range []int64{1, 21} {
			before := events.Load()
			if err := run.serve(seed); err != nil {
				t.Fatalf("%s seed %d: %v", run.name, seed, err)
			}
			if events.Load() == before {
				t.Errorf("%s seed %d: no NextRound call was checked", run.name, seed)
			}
		}
	}
}
