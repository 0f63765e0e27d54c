// Package allow implements the //pimento:allow suppression contract.
//
// A finding is suppressed by an annotation comment
//
//	//pimento:allow <analyzer> <reason...>
//
// placed either trailing on the flagged line or on the comment line(s)
// immediately above it. The reason is mandatory — an annotation is a
// reviewed, justified exception, and `git grep -n '//pimento:allow'`
// lists every one with its reason. Malformed annotations (missing
// reason, unknown analyzer name) and annotations that suppress nothing
// are themselves findings: a stale suppression is a lie about the code.
package allow

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Marker is the annotation prefix, after the comment slashes.
const Marker = "pimento:allow"

// An Entry is one parsed //pimento:allow annotation.
type Entry struct {
	File     string // full filename as recorded in the fset
	Line     int    // line the annotation comment sits on
	Analyzer string
	Used     bool // set when the entry suppresses at least one finding
}

// A Problem is a malformed annotation, reported as a finding of the
// synthetic "pimentoallow" check.
type Problem struct {
	Pos     token.Pos
	Message string
}

// A Set holds every annotation found in one package's files.
type Set struct {
	// entries[file][line] — a line can carry at most one annotation
	// (one trailing comment), but stacked standalone comment lines each
	// carry their own.
	entries map[string]map[int][]*Entry
}

// Collect parses annotations from the files' comments. known is the
// set of valid analyzer names; an annotation naming an unknown
// analyzer is reported as a Problem (it would otherwise silently
// suppress nothing forever).
func Collect(fset *token.FileSet, files []*ast.File, known map[string]bool) (*Set, []Problem) {
	s := &Set{entries: make(map[string]map[int][]*Entry)}
	var problems []Problem
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, Marker) {
					continue
				}
				rest := strings.TrimPrefix(text, Marker)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) == 0 {
					problems = append(problems, Problem{c.Pos(),
						fmt.Sprintf("malformed %s annotation: missing analyzer name and reason", Marker)})
					continue
				}
				name := fields[0]
				if known != nil && !known[name] {
					problems = append(problems, Problem{c.Pos(),
						fmt.Sprintf("%s names unknown analyzer %q", Marker, name)})
					continue
				}
				if len(fields) < 2 {
					problems = append(problems, Problem{c.Pos(),
						fmt.Sprintf("%s %s: a justification reason is required", Marker, name)})
					continue
				}
				e := &Entry{File: pos.Filename, Line: pos.Line, Analyzer: name}
				byLine := s.entries[e.File]
				if byLine == nil {
					byLine = make(map[int][]*Entry)
					s.entries[e.File] = byLine
				}
				byLine[e.Line] = append(byLine[e.Line], e)
			}
		}
	}
	return s, problems
}

// Suppresses reports whether an annotation covers a finding of
// analyzer at file:line, marking the entry used. Coverage is the
// annotation's own line (trailing comment) or a run of annotation
// lines directly above the flagged line (stacked standalone comments).
func (s *Set) Suppresses(file string, line int, analyzer string) bool {
	byLine := s.entries[file]
	if byLine == nil {
		return false
	}
	// The flagged line itself, then walk up through contiguous
	// annotation-bearing lines so several analyzers can be excepted at
	// one site, each with its own reason.
	for l := line; l == line || len(byLine[l]) > 0; l-- {
		for _, e := range byLine[l] {
			if e.Analyzer == analyzer {
				e.Used = true
				return true
			}
		}
	}
	return false
}

// Unused returns annotations that suppressed nothing, sorted by
// position — each is a stale exception to clean up.
func (s *Set) Unused() []*Entry {
	var out []*Entry
	for _, byLine := range s.entries {
		for _, es := range byLine {
			for _, e := range es {
				if !e.Used {
					out = append(out, e)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}
