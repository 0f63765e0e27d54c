// The vet subcommand: run the profile/query static-analysis suite and
// print its diagnostics.
//
//	pimento vet -profile prof.txt [-query '//car[...]'] [-json]
//
// Exit status: 0 when no error-severity diagnostic was found (the
// profile is accepted by Search), 1 when at least one error was found,
// 2 on usage mistakes or unreadable inputs. Output is byte-stable:
// diagnostics are sorted canonically and cycle witnesses carry their
// canonical rotation, so repeated runs produce identical bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	pimento "repro"
	"repro/internal/analysis"
)

// vetPayload mirrors the POST /lint response shape.
type vetPayload struct {
	Clean       bool                  `json:"clean"`
	Errors      int                   `json:"errors"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	Counts      map[string]int        `json:"counts,omitempty"`
}

func runVet(args []string) {
	fs := flag.NewFlagSet("pimento vet", flag.ExitOnError)
	profPath := fs.String("profile", "", "profile file to vet (required)")
	querySrc := fs.String("query", "", "optional query enabling the query-scoped checks (conflict cycles, unsatisfiable rewrites, inert ordering rules)")
	jsonOut := fs.Bool("json", false, "emit the diagnostics as JSON (the POST /lint shape)")
	fs.Parse(args)

	if *profPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*profPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimento vet: %v\n", err)
		os.Exit(2)
	}

	var ds []analysis.Diagnostic
	prof, perr := pimento.ParseProfile(string(src))
	if perr != nil {
		// A duplicate rule identifier is a finding, not a usage mistake.
		if ds = analysis.ParseDiagnostics(perr); ds == nil {
			fmt.Fprintf(os.Stderr, "pimento vet: %v\n", perr)
			os.Exit(2)
		}
	} else {
		var q *pimento.Query
		if *querySrc != "" {
			if q, err = pimento.ParseQuery(*querySrc); err != nil {
				fmt.Fprintf(os.Stderr, "pimento vet: query: %v\n", err)
				os.Exit(2)
			}
		}
		ds = pimento.Vet(prof, q)
	}

	nErr := analysis.ErrorCount(ds)
	if *jsonOut {
		payload := vetPayload{Clean: nErr == 0, Errors: nErr, Diagnostics: ds}
		if ds == nil {
			payload.Diagnostics = []analysis.Diagnostic{}
		}
		if len(ds) > 0 {
			payload.Counts = make(map[string]int)
			for _, d := range ds {
				payload.Counts[d.ID]++
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(&payload)
	} else {
		for _, d := range ds {
			fmt.Println(d.String())
			for _, r := range d.Rules {
				fmt.Printf("    at %s\n", r)
			}
		}
		nWarn, nInfo := 0, 0
		for _, d := range ds {
			switch d.Severity {
			case analysis.SevWarn:
				nWarn++
			case analysis.SevInfo:
				nInfo++
			}
		}
		if len(ds) == 0 {
			fmt.Printf("%s: clean\n", *profPath)
		} else {
			fmt.Printf("%s: %d error(s), %d warning(s), %d info\n", *profPath, nErr, nWarn, nInfo)
		}
	}
	if nErr > 0 {
		os.Exit(1)
	}
}
