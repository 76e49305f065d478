// Command tracecheck validates the observability artifacts the serving
// commands emit: a Chrome trace-event JSON file (-trace), a trace JSONL
// file (-jsonl), and a metrics file (-metrics). It parses each, counts
// events per lifecycle stage, and exits non-zero unless every stage in
// -stages has at least one event — CI's observability job runs it against
// the serve, fleet, control and sharded demos so a refactor that silently
// drops an event kind fails the build instead of shipping a blind spot.
//
// Example:
//
//	serve -mode compare -trace t.json -trace-jsonl t.jsonl -metrics-out m.jsonl
//	tracecheck -trace t.json -jsonl t.jsonl -metrics m.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultStages is the request lifecycle the two-tenant compare demo is
// guaranteed to exercise: arrivals through admission, mix forming and
// scoring, cache hits/misses/probes, dispatch, completion and at least
// one SLO violation.
const defaultStages = "arrive,admit,mix-form,mix-score,cache-hit,cache-miss,cache-probe,dispatch,complete,violate"

// presets maps each layer's canonical demo to the stages it must emit:
// serve is the lifecycle above plus the predicted-vs-actual audit pairs;
// fleet (mix-aware placement, contention-aware mixes) adds placement;
// control (burst demo) adds scale decisions and pool snapshots; shard
// (a K=4 plane with a hot tenant and no growth headroom, e.g.
// control -mode serve -shards 4 -devices Orin:4 -max 4 -handoff-backlog 10
// with one tenant's rate boosted) adds the gossip barrier rounds and the
// cross-shard tenant handoff.
var presets = map[string]string{
	"serve":   defaultStages + ",audit",
	"fleet":   "arrive,admit,place,mix-form,mix-score,cache-hit,dispatch,complete,violate,audit",
	"control": "arrive,admit,place,scale,pool,mix-form,cache-hit,dispatch,complete,violate,audit",
	"shard":   "arrive,admit,place,pool,mix-form,cache-hit,cache-miss,dispatch,complete,violate,audit,gossip,handoff",
}

func main() {
	var (
		tracePath   = flag.String("trace", "", "Chrome trace-event JSON file to validate")
		jsonlPath   = flag.String("jsonl", "", "trace JSONL file to validate")
		metricsPath = flag.String("metrics", "", "metrics JSONL file to validate")
		preset      = flag.String("preset", "", "stage preset for a layer's canonical demo: serve, fleet, control or shard (overridden by -stages)")
		stages      = flag.String("stages", "", "comma-separated event kinds that must each appear at least once (default: the serve lifecycle, or -preset's stages)")
	)
	flag.Parse()
	if *tracePath == "" && *jsonlPath == "" && *metricsPath == "" {
		fail("nothing to check: pass -trace, -jsonl and/or -metrics")
	}
	want := *stages
	if want == "" {
		want = defaultStages
		if *preset != "" {
			p, ok := presets[*preset]
			if !ok {
				fail("unknown -preset %q (want serve, fleet, control or shard)", *preset)
			}
			want = p
		}
	}
	required := strings.Split(want, ",")
	if *tracePath != "" {
		checkStages(*tracePath, chromeCounts(*tracePath), required)
	}
	if *jsonlPath != "" {
		checkStages(*jsonlPath, jsonlCounts(*jsonlPath), required)
	}
	if *metricsPath != "" {
		checkMetrics(*metricsPath)
	}
}

// chromeCounts parses a Chrome trace-event file and counts events by name,
// skipping "M" metadata records. Event names are obs kinds by construction.
func chromeCounts(path string) map[string]int {
	var t struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	if err := json.Unmarshal(data, &t); err != nil {
		fail("%s: not valid Chrome trace JSON: %v", path, err)
	}
	counts := map[string]int{}
	for _, e := range t.TraceEvents {
		if e.Phase == "M" {
			continue
		}
		counts[e.Name]++
	}
	return counts
}

// jsonlCounts counts a trace JSONL file's events by kind.
func jsonlCounts(path string) map[string]int {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			fail("%s:%d: not valid JSON: %v", path, line, err)
		}
		if e.Kind == "" {
			fail("%s:%d: event has no kind", path, line)
		}
		counts[e.Kind]++
	}
	if err := sc.Err(); err != nil {
		fail("%v", err)
	}
	return counts
}

// checkMetrics validates a metrics JSONL file: every line parses and
// carries a name, and there is at least one metric.
func checkMetrics(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		n++
		var m struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			fail("%s:%d: not valid JSON: %v", path, n, err)
		}
		if m.Name == "" {
			fail("%s:%d: metric has no name", path, n)
		}
	}
	if err := sc.Err(); err != nil {
		fail("%v", err)
	}
	if n == 0 {
		fail("%s: no metrics", path)
	}
	fmt.Printf("%s: %d metrics ok\n", path, n)
}

// checkStages fails unless every required stage appears at least once.
func checkStages(path string, counts map[string]int, required []string) {
	var missing []string
	for _, stage := range required {
		stage = strings.TrimSpace(stage)
		if stage != "" && counts[stage] == 0 {
			missing = append(missing, stage)
		}
	}
	kinds := make([]string, 0, len(counts))
	total := 0
	for k, c := range counts {
		kinds = append(kinds, fmt.Sprintf("%s=%d", k, c))
		total += c
	}
	sort.Strings(kinds)
	fmt.Printf("%s: %d events (%s)\n", path, total, strings.Join(kinds, " "))
	if len(missing) > 0 {
		fail("%s: no events for stage(s): %s", path, strings.Join(missing, ", "))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintln(os.Stderr, "tracecheck: "+fmt.Sprintf(format, args...))
	os.Exit(1)
}
