// Package driver runs the pimento analyzer suite over one
// type-checked package and applies the //pimento:allow suppression
// contract. The go vet unitchecker protocol and the analysistest
// fixture harness both feed packages through RunPackage, so
// suppression, test-file skipping, and finding order are identical in
// the gate and in the fixtures.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/tools/analyze/allow"
	"repro/tools/analyze/analysis"
	"repro/tools/analyze/passes/budgetedgo"
	"repro/tools/analyze/passes/cancelprobe"
	"repro/tools/analyze/passes/ctxbg"
	"repro/tools/analyze/passes/metriclabels"
	"repro/tools/analyze/passes/nowfree"
	"repro/tools/analyze/passes/scratchrelease"
	"repro/tools/analyze/passes/snapshotonce"
)

// AllowCheckName is the synthetic analyzer name under which annotation
// hygiene findings (malformed or stale //pimento:allow) are reported.
// It is a valid annotation target like any other analyzer, though
// suppressing the suppression checker should give a reviewer pause.
const AllowCheckName = "pimentoallow"

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxbg.Analyzer,
		snapshotonce.Analyzer,
		cancelprobe.Analyzer,
		metriclabels.Analyzer,
		budgetedgo.Analyzer,
		scratchrelease.Analyzer,
		nowfree.Analyzer,
	}
}

// KnownNames is the set of valid //pimento:allow targets.
func KnownNames() map[string]bool {
	known := map[string]bool{AllowCheckName: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	return known
}

// A Finding is one surviving (unsuppressed) diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// RunPackage applies the whole suite to one package and returns the
// findings that survive suppression, sorted by position. Test files are
// excluded before analyzers see them — the invariants target
// production code; tests fabricate contexts and snapshots freely.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	var prod []*ast.File
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		prod = append(prod, f)
	}

	allows, problems := allow.Collect(fset, prod, KnownNames())

	type rawDiag struct {
		analyzer string
		diag     analysis.Diagnostic
	}
	var raw []rawDiag
	for _, a := range Analyzers() {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     prod,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			raw = append(raw, rawDiag{name, d})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s failed on %s: %w", a.Name, pkg.Path(), err)
		}
	}

	var findings []Finding
	for _, rd := range raw {
		pos := fset.Position(rd.diag.Pos)
		if allows.Suppresses(pos.Filename, pos.Line, rd.analyzer) {
			continue
		}
		findings = append(findings, Finding{rd.analyzer, pos, rd.diag.Message})
	}

	// Annotation hygiene: malformed annotations, then stale ones.
	// Staleness is itself suppressable (an annotation can legitimately
	// cover a finding that only occurs on some build configurations),
	// so route these through the same filter.
	for _, p := range problems {
		pos := fset.Position(p.Pos)
		if allows.Suppresses(pos.Filename, pos.Line, AllowCheckName) {
			continue
		}
		findings = append(findings, Finding{AllowCheckName, pos, p.Message})
	}
	staleMsg := func(e *allow.Entry) Finding {
		return Finding{AllowCheckName,
			token.Position{Filename: e.File, Line: e.Line, Column: 1},
			fmt.Sprintf("stale //%s %s annotation: it suppresses nothing — remove it or fix the drift",
				allow.Marker, e.Analyzer)}
	}
	for _, e := range allows.Unused() {
		if e.Analyzer == AllowCheckName {
			continue // judged in the second pass, after meta-suppressions settle
		}
		if allows.Suppresses(e.File, e.Line, AllowCheckName) {
			continue
		}
		findings = append(findings, staleMsg(e))
	}
	// Second pass: pimentoallow meta-annotations that are still unused
	// after absorbing stale-annotation findings are themselves stale.
	// These are reported unconditionally — the suppression checker's own
	// exceptions don't get exceptions.
	for _, e := range allows.Unused() {
		if e.Analyzer == AllowCheckName {
			findings = append(findings, staleMsg(e))
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
