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
	"errors"
	"flag"
	"fmt"
	"os"

	pimento "repro"
	"repro/internal/analysis"
)

// runVet vets one profile and returns the process exit status.
func runVet(args []string) int {
	fs := flag.NewFlagSet("pimento vet", flag.ContinueOnError)
	profPath := fs.String("profile", "", "profile file to vet (required)")
	querySrc := fs.String("query", "", "optional query enabling the query-scoped checks (conflict cycles, unsatisfiable rewrites, inert ordering rules)")
	jsonOut := fs.Bool("json", false, "emit the diagnostics as JSON (the POST /lint shape)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *profPath == "" {
		fs.Usage()
		return 2
	}
	src, err := os.ReadFile(*profPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimento vet: %v\n", err)
		return 2
	}

	var ds []analysis.Diagnostic
	prof, perr := pimento.ParseProfile(string(src))
	if perr != nil {
		// A duplicate rule identifier is a finding, not a usage mistake.
		if ds = analysis.ParseDiagnostics(perr); ds == nil {
			fmt.Fprintf(os.Stderr, "pimento vet: %v\n", perr)
			return 2
		}
	} else {
		var q *pimento.Query
		if *querySrc != "" {
			if q, err = pimento.ParseQuery(*querySrc); err != nil {
				fmt.Fprintf(os.Stderr, "pimento vet: query: %v\n", err)
				return 2
			}
		}
		ds = pimento.Vet(prof, q)
	}

	nErr := analysis.ErrorCount(ds)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(analysis.NewReport(ds))
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
		return 1
	}
	return 0
}
