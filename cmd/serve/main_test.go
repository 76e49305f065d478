package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"haxconn/internal/cliutil"
	"haxconn/internal/serve"
	"haxconn/internal/soc"
)

// TestCompareModeMixWin drives compare mode's legs exactly as main does
// — tenant specs through the flag parser, the generated trace through
// serve.Legs and serve.Compare, the rows through the printer — on
// a mixed-memory-demand trace (four in-phase periodic tenants spanning
// the Orin demand range), and asserts demand-balance beats fifo on p99
// latency without losing throughput.
func TestCompareModeMixWin(t *testing.T) {
	specs, err := cliutil.ParseTenants(
		"squeeze:SqueezeNet:8:7,incept:Inception:8:7,res152:ResNet152:8:7,res18:ResNet18:8:7",
		"periodic")
	if err != nil {
		t.Fatal(err)
	}
	// The flag string must stay in lockstep with the library's canonical
	// workload, so the CLI demo, the acceptance tests and the bench
	// baseline all serve the same traffic.
	if !reflect.DeepEqual(specs, serve.MixedDemandTenants()) {
		t.Fatalf("flag specs %+v diverged from serve.MixedDemandTenants()", specs)
	}
	tr, err := serve.Generate(specs, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Policy: serve.ContentionAware, Platform: soc.Orin(), SolverTimeScale: 50}
	rows, err := serve.Compare(tr, serve.Legs(cfg)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("compare mode served %d legs, want 4 (naive, contention-aware, demand-balance and contention-aware mixes)", len(rows))
	}
	fifo, db, ca := rows[1].Total, rows[2].Total, rows[3].Total
	if rows[1].MixPolicy != serve.MixFIFO || rows[2].MixPolicy != serve.MixDemandBalance || rows[3].MixPolicy != serve.MixContentionAware {
		t.Fatalf("mix policies %q, %q, %q", rows[1].MixPolicy, rows[2].MixPolicy, rows[3].MixPolicy)
	}
	if db.P99Ms >= fifo.P99Ms {
		t.Errorf("compare mode: demand-balance p99 %.2f ms not better than fifo %.2f ms", db.P99Ms, fifo.P99Ms)
	}
	if db.ThroughputRPS < fifo.ThroughputRPS {
		t.Errorf("compare mode: demand-balance throughput %.1f rps lost to fifo %.1f", db.ThroughputRPS, fifo.ThroughputRPS)
	}
	// The contention-aware leg must beat demand-balance on p99 or SLO
	// violations (and lose neither) — the tentpole's CLI-level assertion.
	if ca.P99Ms > db.P99Ms || ca.Violations > db.Violations {
		t.Errorf("compare mode: contention-aware (p99 %.2f, viol %d) worse than demand-balance (p99 %.2f, viol %d)",
			ca.P99Ms, ca.Violations, db.P99Ms, db.Violations)
	}
	if ca.P99Ms >= db.P99Ms && ca.Violations >= db.Violations {
		t.Errorf("compare mode: contention-aware strictly beats demand-balance on neither p99 nor violations")
	}

	var buf bytes.Buffer
	cliutil.PrintComparison(&buf, rows)
	out := buf.String()
	for _, want := range []string{"naive-gpu-only", "mix-demand-balance", "mix-contention-aware", "p99 vs base"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}
