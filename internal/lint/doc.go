// Package lint implements detlint, the static half of this repo's
// determinism argument. The runtime half is the byte-compare suite —
// determinism tests that replay a trace twice and diff summaries,
// metrics and traces to the byte — but a byte-compare only covers the
// paths the demos exercise. detlint encodes the invariants themselves
// as go/analysis-style rules and checks every package on every build:
//
//   - maprange: no `for … range` over a map in an export/summarize/
//     CSV/trace path unless the loop is the sorted-collect idiom
//     (append keys to a slice, sort it in the same function). Map
//     iteration order is randomized per run; an unsorted walk in a
//     rendering path is the classic byte-determinism killer.
//
//   - walltime: no time.Now/Since/Sleep/After/Tick outside annotated
//     sites. The serving stack runs on the virtual tick clock; wall
//     time is reserved for solver CPU-spend deadlines and the
//     explicitly wall-clock benchmark legs.
//
//   - rawrand: no global math/rand top-level functions (process-global
//     auto-seeded source), no math/rand/v2 globals (unseedable), no
//     wall-clock-seeded rand.NewSource. Random streams are local
//     generators seeded from configuration, like serve/loadgen.go's
//     per-tenant rand.New(rand.NewSource(seed ^ hash(tenant))).
//
//   - baregoroutine: no `go` statement outside the blessed barrier/
//     pool primitives (ProbeAll solve pool, beam scorer, shard
//     stepper), whose merge points are pinned to the virtual clock.
//
// # Suppressions
//
// Every intentional exception is annotated in the source:
//
//	//detlint:allow <rule> <reason…>
//
// on the flagged line or the line directly above. The reason is
// mandatory — a reason-less or unknown-rule directive is itself a
// finding (rule "allow") — so `git grep detlint:allow` enumerates the
// complete, explained exception surface of the tree.
//
// # Running
//
// cmd/detlint compiles the suite into a multichecker:
//
//	go run ./cmd/detlint ./...            # standalone, exit 1 on findings
//	go vet -vettool=$(which detlint) ./...  # as a vet tool
//
// The framework is a self-contained, stdlib-only re-implementation of
// the narrow golang.org/x/tools go/analysis surface the suite needs
// (Analyzer, Pass, diagnostics, an analysistest-style fixture harness
// in lint/linttest), so the module keeps zero dependencies. Packages
// are resolved with `go list -json` and type-checked from source via
// go/importer's "source" compiler — no export data or build cache
// required.
package lint
