// Command pimento runs a personalized XML search from the command line:
//
//	pimento -doc cars.xml -query '//car[price < 2000]' [-profile prof.txt] [-k 5]
//	pimento -doc cars.xml -query '...' -profile prof.txt -explain
//	pimento vet -profile prof.txt [-query '...'] [-json]
//
// -explain prints the Section 5 static analysis (rule applicability,
// conflicts, application order, the query flock, ambiguity) instead of
// executing the query. The vet subcommand runs the full diagnostics
// suite (see internal/analysis) and exits nonzero when the profile
// carries an error-severity finding.
package main

import (
	"flag"
	"fmt"
	"os"

	pimento "repro"
	"repro/internal/plan"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:]))
	}
	docPath := flag.String("doc", "", "XML document to search (required)")
	querySrc := flag.String("query", "", "query, e.g. //car[price < 2000]")
	keywords := flag.String("keywords", "", "alternatively: content-only keyword search, e.g. 'data mining'")
	profPath := flag.String("profile", "", "profile file (optional)")
	k := flag.Int("k", 10, "number of answers")
	strat := flag.String("plan", "push", "plan: naive | interleave | interleave-sort | push")
	explain := flag.Bool("explain", false, "print the static analysis instead of executing")
	stats := flag.Bool("stats", false, "print per-operator statistics")
	flag.Parse()

	if *docPath == "" || (*querySrc == "" && *keywords == "") {
		flag.Usage()
		os.Exit(2)
	}

	var q *pimento.Query
	var err error
	if *querySrc != "" {
		q, err = pimento.ParseQuery(*querySrc)
	} else {
		q, err = pimento.KeywordQuery(*keywords)
	}
	fatal("query", err)

	var prof *pimento.Profile
	if *profPath != "" {
		src, err := os.ReadFile(*profPath)
		fatal("profile", err)
		prof, err = pimento.ParseProfile(string(src))
		fatal("profile", err)
	}

	if *explain {
		if prof == nil {
			fatal("explain", fmt.Errorf("needs -profile"))
		}
		pa := pimento.Analyze(prof, q)
		if pa.ConflictErr != nil {
			fmt.Println("conflicts:", pa.ConflictErr)
		} else {
			fmt.Println("applied rules:", pa.Applied)
			for i, fq := range pa.Flock {
				fmt.Printf("flock[%d]: %s\n", i, fq)
			}
		}
		if pa.Ambiguity.Ambiguous {
			fmt.Println("ambiguous ordering rules:", pa.Ambiguity.Cycle)
			fmt.Println("  ", pa.Ambiguity.Suggestion)
		} else {
			fmt.Println("ordering rules: unambiguous")
		}
		return
	}

	f, err := os.Open(*docPath)
	fatal("doc", err)
	defer f.Close()
	eng, err := pimento.Open(f)
	fatal("doc", err)

	strategy, err := plan.ParseStrategy(*strat)
	fatal("plan", err)
	resp, err := eng.Search(q, prof, pimento.WithK(*k), pimento.WithStrategy(strategy))
	fatal("search", err)

	if len(resp.AppliedSRs) > 0 {
		fmt.Printf("applied scoping rules: %v\n", resp.AppliedSRs)
		fmt.Printf("rewritten query: %s\n", resp.EncodedQuery)
	}
	for i, r := range resp.Results {
		fmt.Printf("%2d. %-24s S=%.3f K=%.3f  %s\n", i+1, r.Path, r.S, r.K, r.Snippet)
	}
	fmt.Printf("(%d answers in %v, %d pruned)\n",
		len(resp.Results), resp.Elapsed, resp.TotalPruned)
	if *stats {
		for _, s := range resp.Stats {
			fmt.Printf("  %-45s in=%-6d out=%-6d pruned=%d\n", s.Name, s.In, s.Out, s.Pruned)
		}
	}
}

func fatal(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimento: %s: %v\n", what, err)
		os.Exit(1)
	}
}
