package lint

import (
	"go/ast"
)

// BareGoroutine flags every `go` statement in non-test code. Replayable
// concurrency in this repo is confined to a handful of blessed
// barrier/pool primitives — ProbeAll's solve pool, the beam scorer, the
// shard stepper — whose merge points
// are pinned to the virtual clock so results are byte-identical no
// matter how the goroutines interleave. Each of those launch sites
// carries a //detlint:allow baregoroutine annotation naming its
// synchronization discipline; an unannotated `go` is a replay hazard
// until proven otherwise.
var BareGoroutine = &Analyzer{
	Name: "baregoroutine",
	Doc: "flags go statements outside the annotated barrier/pool primitives, " +
		"where unsynchronized goroutines break deterministic replay",
	Run: runBareGoroutine,
}

func runBareGoroutine(p *Pass) error {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			p.Reportf(g.Go,
				"bare goroutine outside the blessed barrier/pool primitives (annotate //detlint:allow baregoroutine <discipline> if merge order is pinned to the virtual clock)")
			return true
		})
	}
	return nil
}
