// Package analysistest is a small fixture harness in the spirit of
// golang.org/x/tools/go/analysis/analysistest: fixture packages live
// under testdata/src/<importpath>/ and declare their expected findings
// inline, so each analyzer's test reads as annotated example code.
//
// Expectations are trailing comments of the form
//
//	// want <analyzer> "substring"
//
// one per line that must be flagged. The harness runs the FULL suite
// (driver.RunPackage, suppression included) over each fixture package
// and asserts an exact match: every want is hit by a finding of that
// analyzer whose message contains the quoted substring, and no finding
// lands on a line without a want. //pimento:allow annotations in
// fixtures are live — a line carrying one and no want asserts the
// suppression is honored (and the annotation counted used, or the
// stale-annotation check itself fires).
//
// Stdlib imports are type-checked from $GOROOT source ("source"
// compiler importer — the build environment has no precompiled export
// data for a bare GOPATH-style fixture tree); fixture-to-fixture
// imports resolve within testdata/src.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/tools/analyze/driver"
)

// Run analyzes the fixture package at testdata/src/<pkgPath> (testdata
// resolved relative to the calling test's directory via rel, typically
// "testdata" or "../../testdata") and asserts its // want expectations.
func Run(t *testing.T, testdata string, pkgPath string) {
	t.Helper()
	abs, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatal(err)
	}
	ld := &fixtureLoader{
		t:       t,
		srcRoot: filepath.Join(abs, "src"),
		fset:    token.NewFileSet(),
		std:     importer.ForCompiler(token.NewFileSet(), "source", nil),
		cache:   map[string]*types.Package{},
	}
	files, pkg, info := ld.check(pkgPath, true)

	findings, err := driver.RunPackage(ld.fset, files, pkg, info)
	if err != nil {
		t.Fatalf("RunPackage(%s): %v", pkgPath, err)
	}

	wants := collectWants(t, ld.fset, files)
	matched := make([]bool, len(wants))
	for _, f := range findings {
		hit := false
		for i, w := range wants {
			if matched[i] || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
				matched[i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected finding at %s:%d: [%s] %s",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing finding at %s:%d: want [%s] containing %q",
				filepath.Base(w.file), w.line, w.analyzer, w.substr)
		}
	}
}

type fixtureLoader struct {
	t       *testing.T
	srcRoot string
	fset    *token.FileSet
	std     types.Importer
	cache   map[string]*types.Package
}

// check type-checks a fixture package; target selects full info
// collection for the package under test.
func (ld *fixtureLoader) check(pkgPath string, target bool) ([]*ast.File, *types.Package, *types.Info) {
	ld.t.Helper()
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		ld.t.Fatalf("fixture package %s: %v", pkgPath, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			ld.t.Fatalf("parsing fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	var info *types.Info
	if target {
		info = driver.NewInfo()
	}
	tc := &types.Config{Importer: importerFunc(ld.importPkg)}
	pkg, err := tc.Check(pkgPath, ld.fset, files, info)
	if err != nil {
		ld.t.Fatalf("typechecking fixture %s: %v", pkgPath, err)
	}
	ld.cache[pkgPath] = pkg
	return files, pkg, info
}

// importPkg resolves an import from inside a fixture: sibling fixture
// packages win, everything else is stdlib.
func (ld *fixtureLoader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.cache[path]; ok {
		return pkg, nil
	}
	if st, err := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		_, pkg, _ := ld.check(path, false)
		return pkg, nil
	}
	return ld.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// want is one parsed expectation comment.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
}

// Both comment forms are accepted; the block form lets a line that
// already carries a //pimento:allow line comment still declare an
// expectation: /* want ... */ //pimento:allow ...
var wantRE = regexp.MustCompile(`(?://|/\*)\s*want\s+(\S+)\s+("(?:[^"\\]|\\.)*")`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var wants []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				substr, err := strconv.Unquote(m[2])
				if err != nil {
					t.Fatalf("bad want expectation %q: %v", c.Text, err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, want{pos.Filename, pos.Line, m[1], substr})
			}
		}
	}
	return wants
}
