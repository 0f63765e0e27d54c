package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmark"
)

// TestScoreFreeMatchesOracle: a plan with nothing to rank compiles no
// sort, stops its chain at the (k+1)-th answer and, on the twig path
// without a value filter, stops the join there too — and still returns
// exactly what the old sort-then-prune chain over the whole candidate
// list returns (oracleExecute), on every strategy × access path ×
// capacity × worker count, at k = 1, 10 and past the last match.
// The cases that must not take the shortcut — a VOR-only profile, an
// optional (bonus) predicate, an optional ftcontains — keep their sort,
// and a required value constraint keeps the whole join: the filter
// between the join and the prune may drop what a limited join emitted.
func TestScoreFreeMatchesOracle(t *testing.T) {
	xix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})
	dix := index.Build(genDealer(rand.New(rand.NewSource(61)), 80), text.Pipeline{})
	vorOnly := profile.MustParseProfile(`vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y`)
	for _, c := range []struct {
		ix        *index.Index
		q         string
		prof      *profile.Profile
		scoreFree bool // no sort compiled
		joinLimit bool // the twig path asks the join for k+1
	}{
		{xix, `//person[./address[./city and ./country] and .//business]`, nil, true, true},
		{xix, `//person[./address[./zipcode and ./country] and .//age]/address`, nil, true, true},
		{xix, `//*[./address]`, nil, true, true},
		{dix, `//car[./description and ./color]`, nil, true, true},
		{dix, `//car[./color and price < 2000]`, nil, true, false},
		{dix, `//car[./color]`, vorOnly, false, false},
		{dix, `//car[./description and ./color?]`, nil, false, false},
		{dix, `//car[./description[. ftcontains "good condition"?]]`, nil, false, false},
	} {
		q := tpq.MustParse(c.q)
		more := c.ix.TagCount(q.Nodes[q.Dist].Tag) + 1 // past every match
		for _, k := range []int{1, 10, more} {
			for _, strat := range Strategies {
				for _, access := range []AccessPath{AccessScan, AccessTwigJoin} {
					label := fmt.Sprintf("%s k=%d %v/%v", c.q, k, strat, access)
					want, err := oracleExecute(c.ix, q, c.prof, k, strat, access)
					if err != nil {
						t.Fatal(err)
					}
					for _, capacity := range testCaps {
						for _, par := range []int{1, 2, 3} {
							p, err := buildWith(c.ix, q, c.prof, k, Options{Strategy: strat, AccessPath: access, Parallelism: par}, capacity)
							if err != nil {
								t.Fatal(err)
							}
							assertSameRanking(t, want, p.Execute(), fmt.Sprintf("%s capacity %d par %d", label, capacity, par))
							if sorts := strings.Contains(p.String(), "sort("); sorts == c.scoreFree {
								t.Fatalf("%s: plan %s, want a sort: %v", label, p, !c.scoreFree)
							}
							limited := p.eval != nil && p.joinLimit() > 0
							if limited != (c.joinLimit && p.Access() == AccessTwigJoin) {
								t.Fatalf("%s: join limit %d", label, p.joinLimit())
							}
							if js := p.JoinStats(); limited && js.Emitted > k+1 {
								t.Fatalf("%s: the join emitted %d candidates for k = %d", label, js.Emitted, k)
							}
						}
					}
				}
			}
		}
	}
}

// TestScoreFreePlanString pins the shape of a score-free plan on both
// access paths: no sort, the final prune over the source's own order.
// The scan path's chain is lazy — RequiredOp reads only what the prune
// asks for — so it reads as far as the (k+1)-th match and no further.
func TestScoreFreePlanString(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})
	q := tpq.MustParse(`//person[./address[./city and ./country] and .//business]`)
	for access, want := range map[AccessPath]string{
		AccessScan:     "scan(person) -> required -> bonus -> topkPrune(k=10,S,sorted)",
		AccessTwigJoin: "twigjoin(person) -> twigscan(person) -> bonus -> topkPrune(k=10,S,sorted)",
	} {
		p, err := BuildWith(ix, q, nil, 10, Options{AccessPath: access, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		p.Execute()
		if got := p.String(); got != want {
			t.Errorf("%v: plan\n%s\nwant\n%s", access, got, want)
		}
		stats := p.Stats()
		final := stats[len(stats)-1]
		if final.In != 11 || final.Out != 10 || final.Pruned != 1 || p.TotalPruned() != 1 {
			t.Errorf("%v: final prune %+v, total pruned %d: want 11 in, 10 out, 1 pruned", access, final, p.TotalPruned())
		}
		isSource := func(s algebra.OpStats) bool { return strings.HasSuffix(s.Kind(), "scan") }
		if src := stats[slices.IndexFunc(stats, isSource)]; src.Out >= ix.TagCount("person") {
			t.Errorf("%v: the source emitted %d of %d persons: the chain did not stop", access, src.Out, ix.TagCount("person"))
		}
	}
}
