package main

import (
	"fmt"
	"slices"
	"strings"
)

// repeat runs every named workload n times — seeds seed, seed+1, ...,
// the workload order reversed on every other round so that none always
// runs on a freshly idle or freshly busy machine — and reports, per
// gated metric, the median, quartiles and the spread between the
// quartiles as a share of the median, next to the metric's bound. This
// is the figure the acceptance driver computes from its own runs: a
// metric whose spread exceeds its bound cannot tell a regression of
// that size from noise, and the command fails.
func (b *bench) repeat(names []string, seed int64, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 rounds to have a spread")
	}
	values := map[string]map[string][]float64{}
	noisy := map[string]int{}
	correct := true
	for round := 0; round < n; round++ {
		order := append([]string(nil), names...)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			res, err := b.one(name, seed+int64(round), false)
			if err != nil {
				return fmt.Errorf("%s, round %d: %w", name, round+1, err)
			}
			var row []string
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, sp := range endToEnd {
				v := res.metrics[sp.Name]
				values[name][sp.Name] = append(values[name][sp.Name], v)
				row = append(row, fmt.Sprintf("%s=%.4g", sp.Name, v))
			}
			mark := ""
			if len(res.noisy) > 0 {
				noisy[name]++
				mark = " noisy: " + strings.Join(res.noisy, "; ")
			}
			if !res.correct() {
				correct = false
				mark += " INCORRECT: " + strings.Join(res.problems, "; ")
			}
			fmt.Printf("round %d seed %d %-12s %s%s\n", round+1, seed+int64(round), name, strings.Join(row, " "), mark)
		}
	}

	steady := true
	for _, name := range names {
		fmt.Printf("workload %s: %d runs, %d with a noisy window\n", name, n, noisy[name])
		for _, sp := range endToEnd {
			xs := values[name][sp.Name]
			q1, _, q3 := quartiles(xs)
			spread := relSpread(xs)
			verdict := "steady"
			switch {
			case sp.Name == "setup_s":
				// The driver gates set-up's median between its two sets of
				// runs, not the spread within one.
				verdict = "not gated on spread"
			case spread > sp.Bound:
				verdict, steady = "UNSTEADY: spread exceeds the bound", false
			case spread > sp.Bound/3:
				verdict = "steady, but above a third of the bound"
			}
			fmt.Printf("  %-18s median %12.4f %-4s q1 %12.4f q3 %12.4f n=%d spread %5.1f%% bound %4.0f%%  %s\n",
				sp.Name, median(xs), sp.Unit, q1, q3, len(xs), 100*spread, 100*sp.Bound, verdict)
		}
	}
	if !correct {
		return errIncorrect
	}
	if !steady {
		return fmt.Errorf("some gated metric's run-to-run spread exceeds its bound; see UNSTEADY above")
	}
	return nil
}
