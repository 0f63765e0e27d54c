// Package cancelprobe enforces cooperative-cancellation probes in the
// operator layer (internal/algebra, internal/twig).
//
// Two rules, both earned by the -race stress suites:
//
//  1. Source operators must probe. A batch operator that emits
//     candidates from a slice (its NextBatch never pulls an upstream
//     operator's NextBatch) is the head of a chain: nothing above it
//     will ever observe a cancelled context, so its NextBatch must call
//     (*CancelCheck).Stop (or a stop func() bool probe). Downstream
//     filter operators inherit bounded abort latency from the source's
//     per-batch probe, so an operator that pulls In.NextBatch(dst), or
//     whose Open opens an input (its NextBatch may hand the pull loop
//     to a shared helper), is itself compliant.
//
//  2. Declared probes must fire. A function that accepts a probe — a
//     `stop func() bool` parameter or a *CancelCheck — and then runs
//     candidate loops without ever calling it has dead cancellation
//     plumbing: the twig holistic joins pass probes down exactly so
//     the per-stream merge loops stay abortable.
//
// Both rules are per-function and syntactic about loop placement (a
// probe anywhere in the body counts); the runtime stress gates remain
// the authority on abort latency.
package cancelprobe

import (
	"go/ast"
	"go/types"

	"repro/tools/analyze/analysis"
	"repro/tools/analyze/passes/internal/scope"
)

var scopePkgs = []string{"internal/algebra", "internal/twig"}

// Analyzer flags unprobed source operators and dead probes.
var Analyzer = &analysis.Analyzer{
	Name: "cancelprobe",
	Doc: "operator loops over candidate slices must carry a cancellation probe: source operators " +
		"call CancelCheck.Stop in NextBatch, and functions handed a stop probe must actually fire it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !scope.PathAny(pass.Pkg.Path(), scopePkgs) {
		return nil
	}

	// Group method declarations by receiver type name.
	methods := map[string]map[string]*ast.FuncDecl{} // recv type → method name → decl
	var funcs []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			funcs = append(funcs, fd)
			if name, ok := recvTypeName(fd); ok {
				if methods[name] == nil {
					methods[name] = map[string]*ast.FuncDecl{}
				}
				methods[name][fd.Name.Name] = fd
			}
		}
	}

	// Rule 1: source operators (Open + NextBatch method set, no input
	// pulled or opened in either) must probe in NextBatch.
	for typeName, ms := range methods {
		next, hasNext := ms["NextBatch"]
		open, hasOpen := ms["Open"]
		if !hasNext || !hasOpen {
			continue
		}
		if calls(next.Body, "NextBatch") || calls(open.Body, "NextBatch") || calls(open.Body, "Open") {
			continue // filter/sink operator: bounded by the chain's source
		}
		if !hasProbe(pass.TypesInfo, next.Body) {
			pass.Reportf(next.Pos(),
				"source operator %s.NextBatch emits candidates without a cancellation probe: "+
					"call (*CancelCheck).Stop in the emit path so a dead context aborts the scan",
				typeName)
		}
	}

	// Rule 2: a declared probe parameter must fire in loop-bearing
	// functions.
	for _, fd := range funcs {
		probe, ok := probeParam(pass.TypesInfo, fd)
		if !ok || !hasLoop(fd.Body) {
			continue
		}
		if !hasProbe(pass.TypesInfo, fd.Body) {
			pass.Reportf(fd.Pos(),
				"%s takes cancellation probe %q but never fires it around its loops: "+
					"dead probes make the join uncancellable — call it or drop the parameter",
				fd.Name.Name, probe)
		}
	}
	return nil
}

// recvTypeName returns the receiver's base type name for a method decl.
func recvTypeName(fd *ast.FuncDecl) (string, bool) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

// calls reports whether the body calls <expr>.method(...) — pulling or
// opening an input operator.
func calls(body *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == method {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasProbe reports whether the body contains a cancellation probe
// call: X.Stop() on a CancelCheck, or a call of a func() bool value
// (the twig joins' stop parameter).
func hasProbe(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, recvType, method, ok := scope.MethodCall(info, call); ok &&
			method == "Stop" && recvType == "CancelCheck" {
			found = true
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 0 {
			if sig, ok := info.TypeOf(id).(*types.Signature); ok && isBoolThunk(sig) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// probeParam returns the name of a probe parameter: a `func() bool`
// or a *CancelCheck.
func probeParam(info *types.Info, fd *ast.FuncDecl) (string, bool) {
	if fd.Type.Params == nil {
		return "", false
	}
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		isProbe := false
		if sig, ok := t.Underlying().(*types.Signature); ok && isBoolThunk(sig) {
			isProbe = true
		}
		if _, name, ok := scope.Named(t); ok && name == "CancelCheck" {
			isProbe = true
		}
		if isProbe {
			if len(field.Names) > 0 {
				return field.Names[0].Name, true
			}
			return "_", true
		}
	}
	return "", false
}

// isBoolThunk matches func() bool.
func isBoolThunk(sig *types.Signature) bool {
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}

// hasLoop reports whether the body contains any for/range statement.
func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
			return false
		}
		return true
	})
	return found
}
