// Package snapshotonce enforces the single-snapshot-read rule on the
// serving substrate.
//
// Invariant (DESIGN.md §15): a request resolves every corpus read —
// existence checks, cache-key fingerprints, execution — against ONE
// atomic snapshot, loaded exactly once. PR 7 fixed a generation-mixing
// race where a handler read the registry and a per-name engine map
// separately: a mutation landing between the two reads produced a
// cache key from one generation filled by another generation's index.
// This analyzer makes that class un-reintroducible: within a single
// function, at most one call may load corpus state. Helpers take the
// loaded *Snapshot as a parameter instead of re-reading.
//
// A "load" is any call of the snapshot-reading accessors on the corpus
// type (Snapshot, Len, Search, SearchContext) — each performs its own
// atomic load, so two of them in one function can observe different
// generations.
package snapshotonce

import (
	"go/ast"
	"go/token"

	"repro/tools/analyze/analysis"
	"repro/tools/analyze/passes/internal/scope"
)

// loadMethods are the (*corpus.Corpus) methods that perform an atomic
// snapshot load.
var loadMethods = map[string]bool{
	"Snapshot":      true,
	"Len":           true,
	"Search":        true,
	"SearchContext": true,
}

// Analyzer flags functions that load corpus state more than once.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotonce",
	Doc: "a function may load the corpus snapshot at most once (Snapshot() or any " +
		"snapshot-reading accessor); two loads can straddle a mutation and mix generations — " +
		"thread the *Snapshot into helpers instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !scope.PathAny(pass.Pkg.Path(), scope.ServingPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc counts snapshot loads across the function body including
// nested closures: a closure spawned by a request handler still runs
// inside that request, so its loads mix with the handler's.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var loads []struct {
		pos    token.Pos
		method string
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recvPkg, recvType, method, ok := scope.MethodCall(pass.TypesInfo, call)
		if !ok || recvType != "Corpus" || !scope.PathMatches(recvPkg, "internal/corpus") {
			return true
		}
		if loadMethods[method] {
			loads = append(loads, struct {
				pos    token.Pos
				method string
			}{call.Pos(), method})
		}
		return true
	})
	if len(loads) < 2 {
		return
	}
	for i, l := range loads[1:] {
		pass.Reportf(l.pos,
			"%s loads the corpus snapshot again via %s (load #%d; first load was %s): "+
				"resolve every read against one Snapshot() or generations can mix across a concurrent mutation",
			fd.Name.Name, l.method, i+2, loads[0].method)
	}
}
