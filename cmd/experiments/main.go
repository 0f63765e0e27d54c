// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments -exp table1            # Table 1 (INEX effectiveness)
//	experiments -exp table1-baseline   # same topics without profiles
//	experiments -exp fig6              # Fig. 6 (Push plan scaling)
//	experiments -exp fig7              # Fig. 7 (four plans, 10MB doc)
//	experiments -exp scorers           # Table 1 under tf-idf / BM25 / boolean
//	experiments -exp graded            # INEX strict/generalized quantizations
//	experiments -exp weights           # Section 8 weighted fine-tuning sweep
//	experiments -exp extra-queries     # Section 7.2's "two other queries"
//	experiments -exp ablation          # Section 7.2 design observations
//	experiments -exp all
//
// -quick shrinks the performance-experiment inputs for fast smoke runs.
// fig6, fig7 and ablation time sequential plans on the access path the
// planner picks (ablation also pins each path).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/inex"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1 | table1-baseline | fig6 | fig7 | scorers | graded | weights | extra-queries | ablation | all")
	seed := flag.Int64("seed", 42, "generator seed")
	quick := flag.Bool("quick", false, "shrink performance experiments for a fast run")
	k := flag.Int("k", 10, "top-k result size for performance experiments")
	flag.Parse()

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", func() error {
		rows, err := inex.RunTable1(*seed, true)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1 (measured, personalized) ==")
		fmt.Println(inex.FormatTable(rows))
		fmt.Println("== Table 1 (paper) ==")
		fmt.Println(inex.FormatTable(inex.PaperTable1))
		return nil
	})

	run("table1-baseline", func() error {
		rows, err := inex.RunTable1(*seed, false)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1 topics without profile enforcement (baseline) ==")
		fmt.Println(inex.FormatTable(rows))
		return nil
	})

	run("fig6", func() error {
		cfg := experiments.Fig6Config{Seed: *seed, K: *k}
		if *quick {
			cfg.Sizes = []int{101 * 1024, 212 * 1024, 468 * 1024}
			cfg.Trials = 1
		}
		rows := experiments.RunFig6(cfg)
		fmt.Println("== Fig. 6 (measured) ==")
		fmt.Println(experiments.FormatFig6(rows))
		if last := rows[len(rows)-1]; len(last.Ops) > 0 {
			fmt.Println(experiments.FormatOpBreakdown(
				fmt.Sprintf("Push plan, %s, %d KORs", last.SizeLabel, last.NumKORs), last.Ops))
		}
		return nil
	})

	run("fig7", func() error {
		cfg := experiments.Fig7Config{Seed: *seed, K: *k}
		if *quick {
			cfg.SizeBytes = 1024 * 1024
			cfg.Trials = 1
		}
		rows := experiments.RunFig7(cfg)
		fmt.Println("== Fig. 7 (measured) ==")
		fmt.Println(experiments.FormatFig7(rows))
		maxKOR := 0
		for _, r := range rows {
			if r.NumKORs > maxKOR {
				maxKOR = r.NumKORs
			}
		}
		for _, r := range rows {
			if r.NumKORs == maxKOR && len(r.Ops) > 0 {
				fmt.Println(experiments.FormatOpBreakdown(
					fmt.Sprintf("%s, %d KORs", r.Strategy, r.NumKORs), r.Ops))
			}
		}
		return nil
	})

	run("scorers", func() error {
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
			base, err := inex.RunTable1Scored(*seed, false, sc.scorer)
			if err != nil {
				return err
			}
			pers, err := inex.RunTable1Scored(*seed, true, sc.scorer)
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
	})

	run("graded", func() error {
		fmt.Println("== Graded assessments (INEX relevance/coverage quantizations) ==")
		for _, q := range []struct {
			name  string
			quant inex.Quantization
		}{{"strict", inex.Strict}, {"generalized", inex.Generalized}} {
			rows, err := inex.RunQuantized(*seed, q.quant)
			if err != nil {
				return err
			}
			fmt.Println(inex.FormatGraded(q.name, rows))
		}
		return nil
	})

	run("weights", func() error {
		fmt.Println("== Weight study (Section 8 future work) ==")
		for _, spec := range inex.Topics() {
			if spec.ID != 131 && spec.ID != 140 {
				continue
			}
			rows, err := inex.RunWeightStudy(spec, *seed, 3, []float64{0.05, 0.25, 1, 4})
			if err != nil {
				return err
			}
			fmt.Println(inex.FormatWeightStudy(spec, rows))
		}
		return nil
	})

	run("extra-queries", func() error {
		size := 5*1024*1024 + 700*1024
		if *quick {
			size = 512 * 1024
		}
		rows := experiments.RunExtraQueries(*seed, size, *k, 3)
		fmt.Println("== Other queries (Section 7.2) ==")
		fmt.Println(experiments.FormatExtraQueries(rows))
		return nil
	})

	run("ablation", func() error {
		size := 5 * 1024 * 1024
		if *quick {
			size = 512 * 1024
		}
		rows := experiments.RunAblations(*seed, size, *k, 3)
		fmt.Println("== Ablations ==")
		fmt.Println(experiments.FormatAblations(rows))
		return nil
	})
}
