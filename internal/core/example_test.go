package core_test

import (
	"fmt"
	"log"

	"haxconn/internal/core"
	"haxconn/internal/schedule"
	"haxconn/internal/soc"
)

// ExamplePlan schedules two concurrent DNNs on NVIDIA Orin and compares the
// result against the best of the five baselines.
func ExamplePlan() {
	// A perception stack runs object detection (ResNet101) and scene
	// classification (GoogleNet) on every camera frame. Both must finish
	// before planning starts, so we minimize the combined latency.
	req := core.Request{
		Platform:  soc.Orin(),
		Networks:  []string{"GoogleNet", "ResNet101"},
		Objective: schedule.MinMaxLatency,
	}

	res, err := core.Plan(req)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("HaX-CoNN schedule:", res.Description)
	fmt.Printf("combined latency:  %.2f ms (%.1f fps)\n", res.MeasuredMs, res.FPS)
	for i, name := range req.Networks {
		fmt.Printf("  %-10s %.2f ms\n", name, res.ItemLatencyMs[i])
	}
	fmt.Printf("solver explored %d schedules\n", res.SolverStats.Evals)

	// How much did contention-aware layer-level mapping buy us?
	cmp, err := core.Compare(req)
	if err != nil {
		log.Fatal(err)
	}
	name, best := cmp.BestBaseline(req.Objective)
	fmt.Printf("\nbest baseline (%s): %.2f ms\n", name, best.MeasuredMs)
	fmt.Printf("improvement: %.1f%%\n", 100*cmp.Improvement(req.Objective))
	// Output:
	// HaX-CoNN schedule: GoogleNet: GPU[0-10] DLA[11-142]; ResNet101: GPU[0-345]
	// combined latency:  2.77 ms (723.3 fps)
	//   GoogleNet  1.84 ms
	//   ResNet101  2.69 ms
	// solver explored 72 schedules
	//
	// best baseline (GPU-only): 3.39 ms
	// improvement: 18.5%
}
