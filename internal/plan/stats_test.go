package plan

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// TestParallelStatsAggregate is the regression for the parallel
// Plan.Stats contract: after a parallel Execute the per-operator
// counters must be position-wise *sums over all workers*, not one
// worker's chain. The deterministic prefix of the plan — everything
// before the first prune (scan, required, keyword joins, bonus) sees
// exactly the same answers whether the candidate list is partitioned
// or not — so those counters must match the sequential run exactly;
// downstream of the first prune only conservation invariants hold
// (shared-bound pruning is interleaving-dependent). The plan is
// NS-ILtpkP: Push ranks this request on one worker (tiered).
func TestParallelStatsAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	doc := genDealer(r, 600)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(testProfile)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)

	seq, err := BuildWith(ix, q, prof, 5, Options{Strategy: InterleaveNoSort, Parallelism: 1, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	seq.Execute()
	seqStats := seq.Stats()

	par, err := BuildWith(ix, q, prof, 5, Options{Strategy: InterleaveNoSort, Parallelism: 4, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	par.Execute()
	if par.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", par.Workers())
	}
	parStats := par.Stats()

	if len(seqStats) != len(parStats) {
		t.Fatalf("chain lengths differ: seq %d vs par %d", len(seqStats), len(parStats))
	}
	// Same operators in the same order.
	for i := range seqStats {
		if seqStats[i].Name != parStats[i].Name {
			t.Fatalf("op %d: name %q (par) vs %q (seq)", i, parStats[i].Name, seqStats[i].Name)
		}
	}
	// The join decides every car once; the source must have consumed
	// each of its candidates — the cars whose description holds the
	// phrase, the only ones the keyword-restricted join streams —
	// exactly once across partitions: a single worker's chain would
	// report ~1/4 of that.
	if seq.Access() != AccessTwigJoin {
		t.Fatalf("access = %v, want the twig join", seq.Access())
	}
	holders := map[xmldoc.NodeID]bool{}
	for _, d := range ix.Elements("description") {
		if ix.Contains(d, "good condition") {
			holders[ix.Document().Parent(d)] = true
		}
	}
	nCars, cands := ix.TagCount("car"), len(holders)
	if cands == 0 || cands == nCars {
		t.Fatalf("%d of %d cars hold the phrase: the case needs some of each", cands, nCars)
	}
	for _, st := range [][]algebra.OpStats{seqStats, parStats} {
		if st[0].In != nCars || st[1].In != cands {
			t.Fatalf("the join read %d cars and the source consumed %d candidates, want %d and %d",
				st[0].In, st[1].In, nCars, cands)
		}
	}
	// Deterministic prefix: every operator before the first prune sees
	// identical traffic in both runs.
	for i := range seqStats {
		if parStats[i].Kind() == "topkPrune" {
			break
		}
		if parStats[i].In != seqStats[i].In ||
			parStats[i].Out != seqStats[i].Out ||
			parStats[i].Pruned != seqStats[i].Pruned {
			t.Errorf("op %d (%s): par {in %d out %d pruned %d} != seq {in %d out %d pruned %d}",
				i, seqStats[i].Name,
				parStats[i].In, parStats[i].Out, parStats[i].Pruned,
				seqStats[i].In, seqStats[i].Out, seqStats[i].Pruned)
		}
	}
	checkConservation(t, "seq", seqStats)
	checkConservation(t, "par", parStats)
}

// checkConservation asserts per-operator flow invariants that hold in
// any run: no operator emits or drops more answers than it consumed.
func checkConservation(t *testing.T, label string, stats []algebra.OpStats) {
	t.Helper()
	for i, s := range stats {
		if s.Out+s.Pruned > s.In {
			t.Errorf("%s op %d (%s): out %d + pruned %d > in %d",
				label, i, s.Name, s.Out, s.Pruned, s.In)
		}
	}
}

// TestTimingWallClock pins the WallNS contract: with Options.Timing the
// chain reports inclusive wall time that is positive at the source and
// non-decreasing up the chain (each operator's measurement includes its
// upstream); without it, WallNS stays zero everywhere.
func TestTimingWallClock(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	doc := genDealer(r, 400)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(testProfile)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)

	timed, err := BuildWith(ix, q, prof, 5, Options{Strategy: Push, Parallelism: 1, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	timed.Execute()
	stats := timed.Stats()
	if stats[0].WallNS <= 0 {
		t.Errorf("timed scan WallNS = %d, want > 0", stats[0].WallNS)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].WallNS < stats[i-1].WallNS {
			t.Errorf("inclusive wall time decreased at op %d (%s): %d < %d",
				i, stats[i].Name, stats[i].WallNS, stats[i-1].WallNS)
		}
	}

	bare, err := BuildWith(ix, q, prof, 5, Options{Strategy: Push, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	bare.Execute()
	for i, s := range bare.Stats() {
		if s.WallNS != 0 {
			t.Errorf("untimed op %d (%s) has WallNS %d", i, s.Name, s.WallNS)
		}
	}

	// Timing must not change answers.
	if !sameAnswers(timed.final.TopK(), bare.final.TopK()) {
		t.Error("timed and untimed executions disagree on answers")
	}
}

// TestParallelTimingAggregate: summed worker wall time is still
// non-decreasing up the chain (the invariant survives position-wise
// summation) and positive at the source, on an NS-ILtpkP plan (Push
// would run this request tiered, on one worker).
func TestParallelTimingAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	doc := genDealer(r, 600)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(testProfile)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	p, err := BuildWith(ix, q, prof, 5, Options{Strategy: InterleaveNoSort, Parallelism: 3, Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Execute()
	if p.Workers() != 3 {
		t.Fatalf("workers = %d, want 3", p.Workers())
	}
	stats := p.Stats()
	if stats[0].WallNS <= 0 {
		t.Errorf("merged scan WallNS = %d, want > 0", stats[0].WallNS)
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].WallNS < stats[i-1].WallNS {
			t.Errorf("merged inclusive wall time decreased at op %d (%s): %d < %d",
				i, stats[i].Name, stats[i].WallNS, stats[i-1].WallNS)
		}
	}
}

// TestTotalPrunedSameOnBothPaths: TotalPruned counts topkPrune drops
// only, so an untiered plan reports one figure whichever access path ran
// — the scan's RequiredOp and the join reject the same structural misses,
// but only the former is a chain operator — and the figure is the sum
// /metrics reports under op="topkPrune". A tiered Push plan (n ≥ 1 on the
// join) never feeds the tiers it does not visit: it drops a subset of
// what the scan drops, and the scan drops at most the unvisited join
// matches more.
func TestTotalPrunedSameOnBothPaths(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})
	queries := []*tpq.Query{workload.Fig5Query(), tpq.MustParse(`//person[./address[./city and ./country] and .//business]`)}
	for _, q := range queries {
		for n := 0; n <= 4; n++ {
			prof := workload.Fig5Profile(n)
			for _, strat := range []Strategy{Push, InterleaveNoSort} {
				pruned := map[AccessPath]int{}
				var tiered *Plan
				for _, access := range []AccessPath{AccessScan, AccessTwigJoin} {
					p, err := BuildWith(ix, q, prof, 10, Options{Strategy: strat, AccessPath: access, Parallelism: 1})
					if err != nil {
						t.Fatal(err)
					}
					p.Execute()
					prunes := 0
					for _, s := range p.Stats() {
						if s.Kind() == "topkPrune" {
							prunes += s.Pruned
						}
					}
					if p.TotalPruned() != prunes {
						t.Fatalf("%s n=%d %s %v: TotalPruned %d, topkPrune drops %d", q, n, strat, access, p.TotalPruned(), prunes)
					}
					pruned[access] = prunes
					if p.tiers != nil {
						tiered = p
					}
				}
				scan, twig := pruned[AccessScan], pruned[AccessTwigJoin]
				if tiered != nil != (strat == Push && n > 0) {
					t.Fatalf("%s n=%d %s: tiered %v", q, n, strat, tiered != nil)
				}
				if tiered == nil {
					if scan != twig || scan == 0 {
						t.Errorf("%s n=%d %s: pruned scan %d, twigjoin %d: want equal and non-zero", q, n, strat, scan, twig)
					}
					continue
				}
				matches, _, err := tiered.eval.Distinguished(nil)
				if err != nil {
					t.Fatal(err)
				}
				unvisited := len(matches) - tiered.Stats()[0].Out
				if twig > scan || scan-twig > unvisited {
					t.Errorf("%s n=%d %s: pruned scan %d, tiered twigjoin %d: want 0 ≤ gap ≤ %d unvisited matches", q, n, strat, scan, twig, unvisited)
				}
			}
		}
	}
}
