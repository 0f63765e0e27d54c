package plan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
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

// testCaps are the batch capacities the protocol tests drive: one
// answer per pull (the old protocol's granularity), a size that leaves
// a ragged last batch everywhere, and the served constant.
var testCaps = []int{1, 7, batchCap}

// counters is an operator's traffic without its name and wall time.
type counters struct{ In, Out, Pruned int }

func countersOf(stats []algebra.OpStats) []counters {
	out := make([]counters, len(stats))
	for i, s := range stats {
		out[i] = counters{s.In, s.Out, s.Pruned}
	}
	return out
}

func describeCounters(stats []algebra.OpStats) string {
	var sb strings.Builder
	for _, s := range stats {
		fmt.Fprintf(&sb, "\n  %-45s in %5d out %5d pruned %5d", s.Name, s.In, s.Out, s.Pruned)
	}
	return sb.String()
}

// TestBatchCapacityInvariance: operators only feed forward, so a
// sequential chain must do the same work in the same order at every
// batch capacity — the same answers as the reference evaluator and the
// same per-operator counters as one answer per pull — on every
// strategy, both access paths and every rank mode; and the parallel
// executor, which exchanges its bound at batch boundaries, must return
// exactly the sequential ranking.
func TestBatchCapacityInvariance(t *testing.T) {
	type fixture struct {
		name     string
		ix       *index.Index
		q        *tpq.Query
		profiles map[string]*profile.Profile
	}
	dealerOR := `
vor w1 priority 2: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor w5: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
`
	fixtures := []fixture{
		{
			// 600 cars: the default capacity still sees several batches.
			name: "dealer",
			ix:   index.Build(genDealer(rand.New(rand.NewSource(7)), 600), text.Pipeline{}),
			q:    tpq.MustParse(`//car[./description[. ftcontains "good condition"] and price < 2500]`),
			profiles: map[string]*profile.Profile{
				"fig2":  workload.Fig2Profile(),
				"none":  nil,
				"VKS":   profile.MustParseProfile(dealerOR + "rank V,K,S\n"),
				"blend": profile.MustParseProfile(dealerOR + "rank blend\n"),
			},
		},
		{
			name: "xmark",
			ix:   index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{}),
			q:    workload.Fig5Query(),
			profiles: map[string]*profile.Profile{
				"fig5n1": workload.Fig5Profile(1), "fig5n2": workload.Fig5Profile(2),
				"fig5n3": workload.Fig5Profile(3), "fig5n4": workload.Fig5Profile(4),
			},
		},
	}
	// Tie-heavy fixtures, where the K-only prune and the full-tie prune
	// do most of the cutting: every age is 33, so V ties among the persons
	// that have one, "Yes" scores alike everywhere, and K takes a handful
	// of values; the structure-only query adds S = 0 throughout.
	tied := index.Build(allAges33(t, xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2])), text.Pipeline{})
	vks, blend := workload.Fig5Profile(2), workload.Fig5Profile(2)
	vks.Rank, blend.Rank = profile.VKS, profile.Blend
	fixtures = append(fixtures,
		fixture{name: "tied", ix: tied, q: workload.Fig5Query(), profiles: map[string]*profile.Profile{
			"fig5n1": workload.Fig5Profile(1), "fig5n4": workload.Fig5Profile(4), "VKS": vks, "blend": blend,
		}},
		fixture{name: "tied-struct", ix: tied, q: tpq.MustParse(`//person[./address]`), profiles: map[string]*profile.Profile{
			"none": nil, "fig5n0": workload.Fig5Profile(0), "fig5n2": workload.Fig5Profile(2),
		}})
	// Several keyword joins under orders that read V from the first prune
	// on: two and three score-contributing units (so on the twig path too)
	// under rank V,K,S, blend and a VOR-only profile (rank V,S).
	xmark0 := fixtures[1].ix
	fixtures = append(fixtures,
		fixture{name: "dealer-3ft", ix: fixtures[0].ix,
			q: tpq.MustParse(`//car[./description[. ftcontains "good condition"] and ./description[. ftcontains "low mileage"?] and ./description[. ftcontains "clean title"?]]`),
			profiles: map[string]*profile.Profile{
				"fig2": workload.Fig2Profile(),
				"VKS":  profile.MustParseProfile(dealerOR + "rank V,K,S\n"), "blend": profile.MustParseProfile(dealerOR + "rank blend\n"),
				"VS": profile.MustParseProfile(`vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y` + "\n"),
			}},
		fixture{name: "xmark-3ft", ix: xmark0,
			q: tpq.MustParse(`//person[.//business[. ftcontains "Yes"] and .//education[. ftcontains "College"] and .//city[. ftcontains "Phoenix"?]]`),
			profiles: map[string]*profile.Profile{
				"fig5n2": workload.Fig5Profile(2), "VKS": vks, "blend": blend, "VS": workload.Fig5Profile(0),
			}})
	for _, f := range fixtures {
		for pname, prof := range f.profiles {
			ref, err := Evaluate(f.ix, f.q, prof, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range Strategies {
				for _, access := range []AccessPath{AccessScan, AccessTwigJoin} {
					label := fmt.Sprintf("%s/%s/%v/%v", f.name, pname, strat, access)
					opts := Options{Strategy: strat, AccessPath: access, Parallelism: 1}
					var one []algebra.OpStats
					var seq []algebra.Answer
					for _, c := range testCaps {
						p, err := buildWith(f.ix, f.q, prof, 10, opts, c)
						if err != nil {
							t.Fatal(err)
						}
						seq = p.Execute()
						if !sameAnswers(ref, seq) {
							t.Fatalf("%s capacity %d disagrees with the reference\nwant: %s\ngot:  %s",
								label, c, describe(ref), describe(seq))
						}
						stats := p.Stats()
						if one == nil {
							one = stats
						} else if fmt.Sprint(countersOf(stats)) != fmt.Sprint(countersOf(one)) {
							t.Fatalf("%s: counters at capacity %d differ from capacity 1\ncapacity 1:%s\ncapacity %d:%s",
								label, c, describeCounters(one), c, describeCounters(stats))
						}
					}
					for _, workers := range []int{2, 3, 4} {
						opts.Parallelism = workers
						p, err := BuildWith(f.ix, f.q, prof, 10, opts)
						if err != nil {
							t.Fatal(err)
						}
						assertSameRanking(t, seq, p.Execute(), fmt.Sprintf("%s par=%d", label, workers))
					}
				}
			}
		}
	}
}

// allAges33 re-parses doc with every age element's text forced to 33.
func allAges33(t testing.TB, doc *xmldoc.Document) *xmldoc.Document {
	src := regexp.MustCompile(`<age>[0-9]+</age>`).ReplaceAllString(doc.XMLString(), "<age>33</age>")
	tied, err := xmldoc.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return tied
}

// TestSequentialCountersPinned holds the Fig. 5 n = 1..4 Push plans on
// the seed-42 5.7 MB document to their recorded per-operator counters,
// at every tested capacity. The vectors were re-recorded when the Push
// plan's source became tiered (DESIGN.md §6, item 6): the chain sees
// only the candidates of the tiers it visits — 1,817 / 524 / 84 / 13 of
// the 4,733 persons the untiered join fed it — and the twigjoin entry
// counts the tier members it streamed, not the 9,472 persons the
// untiered join decided. At n = 1 they were re-recorded again when the
// source first tiered by the class rule (§6.6): the 23 persons of the
// "male" tier aged 33 are visited first, and with 10 of them held the
// tier's other 1,794 are skipped. At n = 2–4 they were re-recorded
// when the class became one more tier list: the class tiers of a bound
// arrive ahead of every other tier of it, so the V,K,S prune holds the
// top 10 before the rest arrives and lets through no answer that later
// loses — the sort reads 10 — while the chain entry stays 524 / 84 /
// 13. vor still sits behind the K-only prune and reads what it lets
// through; ftjoin still scores without dropping one.
func TestSequentialCountersPinned(t *testing.T) {
	want := map[int][]algebra.OpStats{
		1: {
			{Name: "twigjoin(person)", In: 23, Out: 23, Pruned: 0},
			{Name: "twigscan(person)", In: 23, Out: 23, Pruned: 0},
			{Name: "ftjoin(Yes)", In: 23, Out: 23, Pruned: 0},
			{Name: "bonus", In: 23, Out: 23, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.071)", In: 23, Out: 23, Pruned: 0},
			{Name: "kor(pi1)", In: 23, Out: 23, Pruned: 0},
			{Name: "topkPrune(k=10,K)", In: 23, Out: 23, Pruned: 0},
			{Name: "vor", In: 23, Out: 23, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S)", In: 23, Out: 10, Pruned: 13},
			{Name: "sort(K,V,S)", In: 10, Out: 10, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S,sorted)", In: 10, Out: 10, Pruned: 0},
		},
		2: {
			{Name: "twigjoin(person)", In: 524, Out: 524, Pruned: 0},
			{Name: "twigscan(person)", In: 524, Out: 524, Pruned: 0},
			{Name: "ftjoin(Yes)", In: 524, Out: 524, Pruned: 0},
			{Name: "bonus", In: 524, Out: 524, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.15)", In: 524, Out: 524, Pruned: 0},
			{Name: "kor(pi1)", In: 524, Out: 524, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.082)", In: 524, Out: 524, Pruned: 0},
			{Name: "kor(pi2)", In: 524, Out: 524, Pruned: 0},
			{Name: "topkPrune(k=10,K)", In: 524, Out: 524, Pruned: 0},
			{Name: "vor", In: 524, Out: 524, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S)", In: 524, Out: 10, Pruned: 514},
			{Name: "sort(K,V,S)", In: 10, Out: 10, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S,sorted)", In: 10, Out: 10, Pruned: 0},
		},
		3: {
			{Name: "twigjoin(person)", In: 84, Out: 84, Pruned: 0},
			{Name: "twigscan(person)", In: 84, Out: 84, Pruned: 0},
			{Name: "ftjoin(Yes)", In: 84, Out: 84, Pruned: 0},
			{Name: "bonus", In: 84, Out: 84, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.26)", In: 84, Out: 84, Pruned: 0},
			{Name: "kor(pi1)", In: 84, Out: 84, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.19)", In: 84, Out: 84, Pruned: 0},
			{Name: "kor(pi2)", In: 84, Out: 84, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.11)", In: 84, Out: 84, Pruned: 0},
			{Name: "kor(pi3)", In: 84, Out: 84, Pruned: 0},
			{Name: "topkPrune(k=10,K)", In: 84, Out: 84, Pruned: 0},
			{Name: "vor", In: 84, Out: 84, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S)", In: 84, Out: 10, Pruned: 74},
			{Name: "sort(K,V,S)", In: 10, Out: 10, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S,sorted)", In: 10, Out: 10, Pruned: 0},
		},
		4: {
			{Name: "twigjoin(person)", In: 13, Out: 13, Pruned: 0},
			{Name: "twigscan(person)", In: 13, Out: 13, Pruned: 0},
			{Name: "ftjoin(Yes)", In: 13, Out: 13, Pruned: 0},
			{Name: "bonus", In: 13, Out: 13, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.41)", In: 13, Out: 13, Pruned: 0},
			{Name: "kor(pi1)", In: 13, Out: 13, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.34)", In: 13, Out: 13, Pruned: 0},
			{Name: "kor(pi2)", In: 13, Out: 13, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.26)", In: 13, Out: 13, Pruned: 0},
			{Name: "kor(pi3)", In: 13, Out: 13, Pruned: 0},
			{Name: "topkPrune(k=10,K,korbound=0.15)", In: 13, Out: 13, Pruned: 0},
			{Name: "kor(pi4)", In: 13, Out: 13, Pruned: 0},
			{Name: "topkPrune(k=10,K)", In: 13, Out: 13, Pruned: 0},
			{Name: "vor", In: 13, Out: 13, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S)", In: 13, Out: 10, Pruned: 3},
			{Name: "sort(K,V,S)", In: 10, Out: 10, Pruned: 0},
			{Name: "topkPrune(k=10,K,V,S,sorted)", In: 10, Out: 10, Pruned: 0},
		},
	}
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[6]), text.Pipeline{})
	for n := 1; n <= 4; n++ {
		for _, c := range testCaps {
			p, err := buildWith(ix, workload.Fig5Query(), workload.Fig5Profile(n), 10,
				Options{Strategy: Push, Parallelism: 1}, c)
			if err != nil {
				t.Fatal(err)
			}
			p.Execute()
			got := p.Stats()
			if fmt.Sprint(got) != fmt.Sprint(want[n]) {
				t.Errorf("n = %d, capacity %d: counters differ from the recorded ones\nwant:%s\ngot:%s",
					n, c, describeCounters(want[n]), describeCounters(got))
			}
			vor := opIndex(got, "vor")
			if kOnly := got[vor-1]; kOnly.Name != "topkPrune(k=10,K)" || got[vor].In != kOnly.Out {
				t.Errorf("n = %d: vor reads %d answers behind %q, which emitted %d", n, got[vor].In, kOnly.Name, kOnly.Out)
			}
			if full := got[vor+1]; full.Name != "topkPrune(k=10,K,V,S)" || full.Out > full.In {
				t.Errorf("n = %d: the prune after vor is %q, in %d out %d", n, full.Name, full.In, full.Out)
			}
		}
	}
}

// opIndex is the position of the first operator of the given kind.
func opIndex(stats []algebra.OpStats, kind string) int {
	return slices.IndexFunc(stats, func(s algebra.OpStats) bool { return s.Kind() == kind })
}

// flipCtx is a context that reports cancellation once done says so —
// a cancel that lands mid-run at a point the test chooses.
type flipCtx struct {
	context.Context
	done func() bool
}

func (c flipCtx) Err() error {
	if c.done() {
		return context.Canceled
	}
	return nil
}

// TestCancelWithinOneBatch: the source and prune loops probe the
// context once per batch, so a cancel that lands mid-run stops the scan
// before another batch is emitted, and the execution reports the
// context's error with a nil answer list.
func TestCancelWithinOneBatch(t *testing.T) {
	ix := bigDoc(t, 2000)
	q := tpq.MustParse(`//item[./name[. ftcontains "alpha"]]`)
	for _, c := range []int{7, batchCap} {
		p, err := buildWith(ix, q, nil, 5, Options{AccessPath: AccessScan, Parallelism: 1}, c)
		if err != nil {
			t.Fatal(err)
		}
		cancelAt := 3 * c
		ctx := flipCtx{context.Background(), func() bool { return p.src.Stats().Out >= cancelAt }}
		answers, err := p.ExecuteContext(ctx)
		if !errors.Is(err, context.Canceled) || answers != nil {
			t.Fatalf("capacity %d: got %d answers, err %v; want none and context.Canceled", c, len(answers), err)
		}
		if scanned := p.src.Stats().Out; scanned >= cancelAt+c {
			t.Errorf("capacity %d: %d candidates scanned after a cancel at %d: more than one batch late",
				c, scanned, cancelAt)
		}
	}
	// Parallel partitions each carry their own probe.
	p, err := BuildWith(ix, q, nil, 5, Options{AccessPath: AccessScan, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	answers, err := p.ExecuteContext(flipCtx{context.Background(), func() bool { return polls.Add(1) > 2 }})
	if !errors.Is(err, context.Canceled) || answers != nil {
		t.Fatalf("parallel: got %d answers, err %v; want none and context.Canceled", len(answers), err)
	}
}

// TestServedChainAllocs is the deterministic allocation guard of the
// served chain: build + execute + release of the Fig. 5 n = 4 Push plan
// with Timing on, on the 468 KB document (767 persons). The one-answer
// pull chain (f78fd00) allocated 804 times here — a key slice, a closure
// and a copied attribute value per answer per VOR, a unit slice per
// scanned candidate; the batch chain allocated 97, most of them plan
// build (operators, matcher, twig evaluator), then the twig join, one
// key arena per vor batch and the top-k copy. The ceiling is that count:
// an operator more (the K-only prune was one) is a deliberate change.
// The tiered source stays within it by building its tier table once per
// plan, reading the KORs the plan sorted once and its tier lists' rank
// sets from the index's cache, and running its joins into one buffer,
// halved into members and matches, that grows to the largest tier yet
// and at least a batch (96: the stream-sized pair it replaced was two
// allocations). The same run on the 5.7 MB document (4,733 persons in
// the stream) is held to a byte budget a stream-sized buffer would
// break: 58 KB a run with two of them, 22 KB without.
func TestServedChainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a share of what is put back, so the count is not deterministic")
	}
	q, prof := workload.Fig5Query(), workload.Fig5Profile(4)
	run := func(ix *index.Index) func() {
		return func() {
			p, err := BuildWith(ix, q, prof, 10, Options{Strategy: Push, Parallelism: 1, Timing: true})
			if err != nil {
				t.Fatal(err)
			}
			p.Execute()
			p.Release()
		}
	}
	const ceiling = 96
	got := testing.AllocsPerRun(20, run(index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})))
	if got > ceiling {
		t.Errorf("build + execute + release allocates %v times, ceiling %d", got, ceiling)
	}

	const runs, budget = 20, 32 << 10
	big := run(index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[6]), text.Pipeline{}))
	big() // warm the index's caches and the chain's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		big()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > budget {
		t.Errorf("on the 5.7 MB document build + execute + release allocates %d bytes a run, budget %d", perRun, budget)
	}
}
