// Package unit implements the `go vet -vettool` unit-checking
// protocol for the pimento suite: cmd/go compiles each package, writes
// a JSON vet config describing it (sources, import map, export-data
// files), and invokes the tool once per package in the package's
// directory with the config path as the sole argument.
//
// The contract, reverse-engineered from cmd/go/internal/work (the
// protocol is not formally documented outside x/tools' unitchecker,
// which this package substitutes for):
//
//   - `tool -V=full` prints "<name> version <id>"; the line is the
//     tool's cache key, so <id> hashes the tool binary itself — a
//     rebuilt vettool invalidates prior vet results.
//   - A run producing findings prints them to stderr and exits 2; the
//     go command relays them and fails the vet.
//   - cfg.VetxOnly means "this package is only needed for facts"; the
//     suite is fact-free, so it writes an empty vetx and exits 0.
//   - cfg.SucceedOnTypecheckFailure reproduces vet's default tolerance
//     for uncompilable packages (the compiler reports those better).
package unit

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"

	"repro/tools/analyze/driver"
)

// vetConfig mirrors the JSON written by cmd/go for each vetted
// package. Fields the suite has no use for are omitted from parsing
// but tolerated in the input.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// PrintVersion emits the -V=full line. The id is a hash of the tool
// binary so go vet's result cache turns over whenever the tool is
// rebuilt with different analyzers.
func PrintVersion(w io.Writer) {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil))[:16]
			}
			f.Close()
		}
	}
	fmt.Fprintf(w, "pimento-analyze version pimento-%s\n", id)
}

// Run executes one unit check against the given vet config path and
// returns the process exit code: 0 clean, 1 tool failure, 2 findings.
func Run(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "pimento-analyze: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "pimento-analyze: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}

	// Fact-free suite: dependencies contribute nothing beyond their
	// export data, which cmd/go hands over separately.
	if cfg.VetxOnly {
		if err := writeVetx(cfg.VetxOutput); err != nil {
			fmt.Fprintf(stderr, "pimento-analyze: %v\n", err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(stderr, "pimento-analyze: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	pkg, info, err := typecheck(fset, files, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "pimento-analyze: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	findings, err := driver.RunPackage(fset, files, pkg, info)
	if err != nil {
		fmt.Fprintf(stderr, "pimento-analyze: %v\n", err)
		return 1
	}
	if err := writeVetx(cfg.VetxOutput); err != nil {
		fmt.Fprintf(stderr, "pimento-analyze: %v\n", err)
		return 1
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintf(stderr, "%s\n", f)
		}
		return 2
	}
	return 0
}

// typecheck type-checks the unit against the export data of its
// dependencies, exactly as the compiler saw them.
func typecheck(fset *token.FileSet, files []*ast.File, cfg *vetConfig) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is already resolved through ImportMap.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, build()),
	}
	info := driver.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

func build() string {
	if arch := os.Getenv("GOARCH"); arch != "" {
		return arch
	}
	return runtime.GOARCH
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// writeVetx writes the (empty — no facts) vetx output if requested.
func writeVetx(path string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte{}, 0o666)
}
