// Command experiments regenerates the paper's effectiveness artifacts:
//
//	experiments -exp table1            # Table 1 (INEX effectiveness)
//	experiments -exp table1-baseline   # same topics without profiles
//	experiments -exp scorers           # Table 1 under tf-idf / BM25 / boolean
//	experiments -exp graded            # INEX strict/generalized quantizations
//	experiments -exp weights           # Section 8 weighted fine-tuning sweep
//	experiments -exp all
//
// None of them times anything. The timed figures — Fig. 6, Fig. 7,
// Section 7.2's other queries and its ablations — are the root
// package's benchmarks (go test -run '^$' -bench 'Fig6|Fig7|ExtraQueries|Ablation' .).
// An unknown -exp name is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/index"
	"repro/internal/inex"
)

// experiment is one named artifact: run regenerates and prints it.
type experiment struct {
	name string
	run  func(seed int64) error
}

var experiments = []experiment{
	{"table1", func(seed int64) error {
		rows, err := inex.RunTable1(seed, true)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1 (measured, personalized) ==")
		fmt.Println(inex.FormatTable(rows))
		fmt.Println("== Table 1 (paper) ==")
		fmt.Println(inex.FormatTable(inex.PaperTable1))
		return nil
	}},
	{"table1-baseline", func(seed int64) error {
		rows, err := inex.RunTable1(seed, false)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1 topics without profile enforcement (baseline) ==")
		fmt.Println(inex.FormatTable(rows))
		return nil
	}},
	{"scorers", func(seed int64) error {
		fmt.Println("== Scorer study ==")
		fmt.Println("Personalization is orthogonal to the base scorer S: swapping")
		fmt.Println("tf-idf for BM25 or boolean retrieval leaves the profile win intact.")
		fmt.Println("Total missed across the 8 topics, by base scorer:")
		fmt.Println("Scorer    baseline  personalized")
		for _, sc := range []struct {
			name   string
			scorer index.Scorer
		}{
			{"tfidf", index.TFIDFScorer{}},
			{"bm25", index.BM25Scorer{}},
			{"boolean", index.BooleanScorer{}},
		} {
			base, err := inex.RunTable1Scored(seed, false, sc.scorer)
			if err != nil {
				return err
			}
			pers, err := inex.RunTable1Scored(seed, true, sc.scorer)
			if err != nil {
				return err
			}
			bm, pm := 0, 0
			for i := range base {
				bm += base[i].Missed
				pm += pers[i].Missed
			}
			fmt.Printf("%-9s %-9d %d\n", sc.name, bm, pm)
		}
		fmt.Println()
		return nil
	}},
	{"graded", func(seed int64) error {
		fmt.Println("== Graded assessments (INEX relevance/coverage quantizations) ==")
		for _, q := range []struct {
			name  string
			quant inex.Quantization
		}{{"strict", inex.Strict}, {"generalized", inex.Generalized}} {
			rows, err := inex.RunQuantized(seed, q.quant)
			if err != nil {
				return err
			}
			fmt.Println(inex.FormatGraded(q.name, rows))
		}
		return nil
	}},
	{"weights", func(seed int64) error {
		fmt.Println("== Weight study (Section 8 future work) ==")
		for _, spec := range inex.Topics() {
			if spec.ID != 131 && spec.ID != 140 {
				continue
			}
			rows, err := inex.RunWeightStudy(spec, seed, 3, []float64{0.05, 0.25, 1, 4})
			if err != nil {
				return err
			}
			fmt.Println(inex.FormatWeightStudy(spec, rows))
		}
		return nil
	}},
}

func main() {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, " | "))
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		if err := e.run(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q (valid: %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}
