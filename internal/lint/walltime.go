package lint

import (
	"go/ast"
	"go/types"
)

// WallTime flags wall-clock reads and sleeps in non-test code. The
// entire serving stack — serve, fleet, control, shard — runs on the
// virtual tick clock so that traces, summaries and metrics replay
// byte-identically; a stray time.Now() or time.Sleep() silently couples
// results to the host scheduler. The intentional wall-clock sites are
// the solver's: under a TimeBudget, its wall deadline caps real CPU
// spend. Each carries a //detlint:allow walltime annotation explaining
// why it never feeds deterministic output.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc: "flags time.Now/Since/Sleep and friends outside annotated " +
		"solver-deadline sites, protecting the virtual-clock discipline",
	Run: runWallTime,
}

// wallTimeFuncs are the package time functions that observe or depend
// on the wall clock. Pure constructors/formatters (time.Duration,
// time.Unix, ParseDuration) are fine.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

func runWallTime(p *Pass) error {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !wallTimeFuncs[sel.Sel.Name] {
				return true
			}
			if !isPkgIdent(p, sel.X, "time") {
				return true
			}
			p.Reportf(sel.Pos(),
				"wall-clock call time.%s outside the virtual tick clock (annotate //detlint:allow walltime <reason> if intentional)",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}

// isPkgIdent reports whether e is an identifier naming the import of
// pkgPath.
func isPkgIdent(p *Pass, e ast.Expr, pkgPath string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}
