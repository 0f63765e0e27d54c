package plan

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
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

// genDealer builds a randomized car-sale document with the attributes and
// phrases the Fig. 2 running example uses.
func genDealer(r *rand.Rand, nCars int) *xmldoc.Document {
	colors := []string{"red", "blue", "green"}
	makes := []string{"honda", "ford", "mustang"}
	snippets := []string{
		"good condition", "low mileage", "best bid", "NYC", "eager seller",
		"powerful engine", "american classic", "clean title",
	}
	b := xmldoc.NewBuilder()
	b.Start("dealer")
	for i := 0; i < nCars; i++ {
		b.Start("car")
		var sb strings.Builder
		n := 1 + r.Intn(4)
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteString(". ")
			}
			sb.WriteString(snippets[r.Intn(len(snippets))])
		}
		b.Elem("description", sb.String())
		b.Elem("price", fmt.Sprintf("%d", 300+r.Intn(3000)))
		if r.Intn(5) > 0 {
			b.Elem("color", colors[r.Intn(len(colors))])
		}
		b.Elem("mileage", fmt.Sprintf("%d", 1000*(1+r.Intn(90))))
		b.Elem("make", makes[r.Intn(len(makes))])
		b.Elem("hp", fmt.Sprintf("%d", 100+10*r.Intn(20)))
		b.End()
	}
	b.End()
	return b.MustDocument()
}

const testProfile = `
vor w1 priority 2: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor w5: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
rank K,V,S
`

// Evaluate is the naive reference evaluator: score every candidate fully,
// sort by the profile's rank order, return the top k — the ground truth
// the pruning plans are tested against.
func Evaluate(ix *index.Index, q *tpq.Query, prof *profile.Profile, k int) ([]algebra.Answer, error) {
	p, err := Build(ix, q, prof, k, Naive)
	if err != nil {
		return nil, err
	}
	return p.Execute(), nil
}

func TestAllStrategiesAgreeWithNaive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	prof := profile.MustParseProfile(testProfile)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"] and price < 2000]`)
	for iter := 0; iter < 40; iter++ {
		doc := genDealer(r, 5+r.Intn(60))
		ix := index.Build(doc, text.Pipeline{})
		k := 1 + r.Intn(8)
		ref, err := Evaluate(ix, q, prof, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{InterleaveNoSort, InterleaveSort, Push} {
			p, err := Build(ix, q, prof, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			got := p.Execute()
			if !sameAnswers(ref, got) {
				t.Fatalf("iter %d k %d: %v disagrees with Naive\nnaive: %v\n%-5v: %v\nplan: %s",
					iter, k, strat, describe(ref), strat, describe(got), p)
			}
		}
	}
}

// sameAnswers compares results modulo reordering among exact ranking
// ties: the (K, V-irrelevant, S) triples must match pairwise and the node
// sets must be permutations within tie groups. We require K and S
// sequences to match exactly and node multisets to be equal.
func sameAnswers(a, b []algebra.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	const eps = 1e-12
	for i := range a {
		if absf(a[i].K-b[i].K) > eps || absf(a[i].S-b[i].S) > eps {
			return false
		}
	}
	seen := map[xmldoc.NodeID]int{}
	for i := range a {
		seen[a[i].Node]++
		seen[b[i].Node]--
	}
	for _, v := range seen {
		if v != 0 {
			return false
		}
	}
	return true
}

func absf(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

func describe(as []algebra.Answer) string {
	var parts []string
	for _, a := range as {
		parts = append(parts, fmt.Sprintf("n%d(K=%.3f,S=%.3f)", a.Node, a.K, a.S))
	}
	return strings.Join(parts, " ")
}

func TestPushPrunesMoreThanNaive(t *testing.T) {
	// Pruning between KORs needs the accumulated K spread to exceed the
	// remaining kor-scorebound — the paper's Section 7.2 observation that
	// "applying the KOR which contributes the highest score first is
	// beneficial as it increases the pruning threshold". Four KORs with a
	// heavy first one make that happen.
	r := rand.New(rand.NewSource(7))
	doc := genDealer(r, 400)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(`
kor k1 priority 1 weight 3: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor k2 priority 2: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
kor k3 priority 3: x.tag = car & y.tag = car & ftcontains(x, "eager seller") => x < y
kor k4 priority 4: x.tag = car & y.tag = car & ftcontains(x, "clean title") => x < y
`)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)

	naive, err := Build(ix, q, prof, 5, Naive)
	if err != nil {
		t.Fatal(err)
	}
	naive.Execute()
	push, err := Build(ix, q, prof, 5, Push)
	if err != nil {
		t.Fatal(err)
	}
	push.Execute()

	// The push plan prunes before the KOR operators; its kor ops must see
	// fewer answers than the naive plan's.
	naiveKorIn := korInput(naive)
	pushKorIn := korInput(push)
	if pushKorIn >= naiveKorIn {
		t.Errorf("push kor input %d, naive %d: pushing should cut kor work",
			pushKorIn, naiveKorIn)
	}

	// Under rank K,V,S vor sits behind the K cuts, so the plans differ in
	// how many answers get value keys: all of them under Naive, what the
	// kor-scorebound > 0 prunes leave under NS-ILtpkP, and what the K-only
	// prune at bound 0 leaves under Push.
	xix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})
	for n := 2; n <= 4; n++ {
		vorIn := map[Strategy]int{}
		for _, strat := range []Strategy{Naive, InterleaveNoSort, Push} {
			p, err := Build(xix, workload.Fig5Query(), workload.Fig5Profile(n), 10, strat)
			if err != nil {
				t.Fatal(err)
			}
			p.Execute()
			stats := p.Stats()
			vorIn[strat] = stats[opIndex(stats, "vor")].In
		}
		if !(vorIn[Push] < vorIn[InterleaveNoSort] && vorIn[InterleaveNoSort] <= vorIn[Naive]) {
			t.Errorf("n = %d: vor input Push %d, NS-ILtpkP %d, Naive %d: want Push < NS-ILtpkP <= Naive",
				n, vorIn[Push], vorIn[InterleaveNoSort], vorIn[Naive])
		}
	}
}

// TestPushPrunesAtScale: on a 512 KB XMark document under Fig. 5's four
// KORs, the sequential Push plan prunes more answers than Naive — the
// mechanism behind Fig. 7, which BenchmarkFig7 reports as pruned/op.
func TestPushPrunesAtScale(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, 512*1024), text.Pipeline{})
	pruned := map[Strategy]int{}
	for _, strat := range []Strategy{Naive, Push} {
		p, err := BuildWith(ix, workload.Fig5Query(), workload.Fig5Profile(4), 10, Options{Strategy: strat, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		p.Execute()
		pruned[strat] = p.TotalPruned()
	}
	if pruned[Push] <= pruned[Naive] {
		t.Errorf("push pruned %d, naive %d: pushing must prune more", pruned[Push], pruned[Naive])
	}
}

// TestExtraQueriesPushAgreesWithNaive: on Section 7.2's "two other
// queries" the sequential Naive and Push plans return the identical top
// 10 — nodes, order, K and S. BenchmarkExtraQueries times the two.
func TestExtraQueriesPushAgreesWithNaive(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, 512*1024), text.Pipeline{})
	for _, w := range workload.ExtraQueries() {
		var got [2][]algebra.Answer
		for i, strat := range []Strategy{Naive, Push} {
			p, err := BuildWith(ix, w.Query, w.Profile, 10, Options{Strategy: strat, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = p.Execute()
		}
		if len(got[0]) != 10 {
			t.Fatalf("%s: %d answers, want 10", w.Name, len(got[0]))
		}
		assertSameRanking(t, got[0], got[1], w.Name)
	}
}

func korInput(p *Plan) int {
	total := 0
	for _, s := range p.Stats() {
		if strings.HasPrefix(s.Name, "kor(") {
			total += s.In
		}
	}
	return total
}

func TestVOnlyProfile(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	doc := genDealer(r, 60)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(`
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	p, err := Build(ix, q, prof, 5, Push)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != algebra.ModeVS {
		t.Fatalf("mode = %v", p.Mode)
	}
	got := p.Execute()
	if len(got) == 0 {
		t.Fatal("no answers")
	}
	// Results must be sorted by increasing mileage (the VOR preference).
	last := -1.0
	for _, a := range got {
		v, ok := ix.Document().AttrValue(a.Node, "mileage")
		m, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if !ok || err != nil {
			continue
		}
		if last >= 0 && m < last {
			t.Errorf("mileage order violated: %v after %v", m, last)
		}
		last = m
	}
}

func TestNoProfile(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	doc := genDealer(r, 40)
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	p, err := Build(ix, q, nil, 3, Push)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != algebra.ModeS {
		t.Fatalf("mode = %v", p.Mode)
	}
	got := p.Execute()
	for i := 1; i < len(got); i++ {
		if got[i].S > got[i-1].S {
			t.Errorf("S order violated: %+v", got)
		}
	}
}

func TestVKSRankOrder(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	prof := profile.MustParseProfile(testProfile + "\nrank V,K,S")
	doc := genDealer(r, 80)
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	ref, err := Evaluate(ix, q, prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{InterleaveNoSort, InterleaveSort, Push} {
		p, err := Build(ix, q, prof, 5, strat)
		if err != nil {
			t.Fatal(err)
		}
		if p.Mode != algebra.ModeVKS {
			t.Fatalf("mode = %v", p.Mode)
		}
		got := p.Execute()
		if !sameAnswers(ref, got) {
			t.Errorf("%v disagrees under V,K,S:\nnaive: %s\ngot:   %s",
				strat, describe(ref), describe(got))
		}
	}
}

func TestEncodedOptionalPredicatesRankHigher(t *testing.T) {
	// Flock-encoded query: optional "low mileage" (delete-encoded) must
	// keep non-matching cars but rank matching ones higher on S.
	doc, err := xmldoc.ParseString(`
<dealer>
  <car><description>good condition</description></car>
  <car><description>good condition and low mileage</description></car>
</dealer>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"?]]`)
	got, err := Evaluate(ix, q, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("both cars must qualify: %+v", got)
	}
	cars := ix.Elements("car")
	if got[0].Node != cars[1] {
		t.Errorf("the car satisfying the optional predicate must rank first: %s", describe(got))
	}
	if !(got[0].S > got[1].S) {
		t.Errorf("optional match must add score: %s", describe(got))
	}
}

func TestBuildErrors(t *testing.T) {
	doc, _ := xmldoc.ParseString(`<a><b>x</b></a>`)
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//b`)
	if _, err := Build(ix, q, nil, 0, Naive); err == nil {
		t.Errorf("k=0 must fail")
	}
	bad := tpq.MustParse(`//b`)
	bad.Dist = 5
	if _, err := Build(ix, bad, nil, 3, Naive); err == nil {
		t.Errorf("invalid query must fail")
	}
}

func TestKFewerThanAnswers(t *testing.T) {
	doc, _ := xmldoc.ParseString(`<d><car><description>good condition</description></car></d>`)
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	got, err := Evaluate(ix, q, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("k larger than result: %+v", got)
	}
}

func TestPlanStringAndStats(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	doc := genDealer(r, 10)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(testProfile)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	p, err := BuildWith(ix, q, prof, 3, Options{Strategy: Push, AccessPath: AccessScan})
	if err != nil {
		t.Fatal(err)
	}
	p.Execute()
	// Push under rank K,V,S: K-only prunes around the kors, vor behind the
	// last of them, then the prunes and the sort that read V.
	want := "scan(car) -> required -> ftjoin(good condition) -> bonus" +
		" -> topkPrune(k=3,K,korbound=0.65) -> kor(w4) -> topkPrune(k=3,K,korbound=0.39) -> kor(w5)" +
		" -> topkPrune(k=3,K) -> vor -> topkPrune(k=3,K,V,S) -> sort(K,V,S) -> topkPrune(k=3,K,V,S,sorted)"
	if s := p.String(); s != want {
		t.Errorf("plan\n%s\nwant\n%s", s, want)
	}
	if p.TotalPruned() < 0 {
		t.Errorf("TotalPruned negative")
	}
	stats := p.Stats()
	if len(stats) == 0 || stats[0].Name != "scan(car)" {
		t.Errorf("stats = %+v", stats)
	}
}

// TestTwigAccessAgreesWithScan: the twig access path must produce the
// exact same ranked answers as the scan + per-candidate matcher path.
func TestTwigAccessAgreesWithScan(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	prof := profile.MustParseProfile(testProfile)
	queries := []*tpq.Query{
		tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`),
		tpq.MustParse(`//car[price < 2000]`),
		tpq.MustParse(`//dealer//car[./description and ./color]`),
		tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"?]]`),
	}
	for iter := 0; iter < 30; iter++ {
		doc := genDealer(r, 5+r.Intn(60))
		ix := index.Build(doc, text.Pipeline{})
		q := queries[r.Intn(len(queries))]
		k := 1 + r.Intn(6)
		for _, strat := range []Strategy{Naive, Push} {
			scan, err := BuildWith(ix, q, prof, k, Options{Strategy: strat, AccessPath: AccessScan})
			if err != nil {
				t.Fatal(err)
			}
			twigP, err := BuildWith(ix, q, prof, k, Options{Strategy: strat, AccessPath: AccessTwigJoin})
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(scan.Execute(), twigP.Execute()) {
				t.Fatalf("iter %d: twig access disagrees\nq: %s", iter, q)
			}
			if !strings.Contains(twigP.String(), "twigscan") {
				t.Fatalf("twig plan lacks twigscan: %s", twigP)
			}
		}
	}
}

// TestPropertyStrategiesAgreeRandomQueries widens the agreement check to
// random profiles and random k over random documents.
func TestPropertyStrategiesAgreeRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	queries := []*tpq.Query{
		tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`),
		tpq.MustParse(`//car[price < 2000]`),
		tpq.MustParse(`//car[./description[. ftcontains "best bid"] and price < 2500]`),
		tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"?]]`),
	}
	profiles := []*profile.Profile{
		nil,
		profile.MustParseProfile(`kor k1: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y`),
		profile.MustParseProfile(testProfile),
		profile.MustParseProfile(`
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor k1 priority 1 weight 2: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor k2 priority 2: x.tag = car & y.tag = car & ftcontains(x, "american") => x < y
kor k3 priority 3: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
`),
		profile.MustParseProfile(testProfile + "\nrank blend"),
	}
	for iter := 0; iter < 60; iter++ {
		doc := genDealer(r, 3+r.Intn(50))
		ix := index.Build(doc, text.Pipeline{})
		q := queries[r.Intn(len(queries))]
		prof := profiles[r.Intn(len(profiles))]
		k := 1 + r.Intn(6)
		ref, err := Evaluate(ix, q, prof, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{InterleaveNoSort, InterleaveSort, Push} {
			p, err := Build(ix, q, prof, k, strat)
			if err != nil {
				t.Fatal(err)
			}
			got := p.Execute()
			if !sameAnswers(ref, got) {
				t.Fatalf("iter %d: %v disagrees\nq: %s\nnaive: %s\ngot:   %s\nplan: %s",
					iter, strat, q, describe(ref), describe(got), p)
			}
		}
	}
}

// TestParseStrategy pins the one name table the -plan flag and the
// /search "strategy" field share.
func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"": Push, "push": Push, "default": Push, "naive": Naive,
		"interleave": InterleaveNoSort, "interleave-nosort": InterleaveNoSort,
		"interleave-sort": InterleaveSort,
	} {
		if got, err := ParseStrategy(name); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"quantum", "push-deep"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("unknown strategy %q accepted", name)
		}
	}
}

// TestChainOpsWithinEstimate: maxChainOps sizes the chain's operator
// slice and its one allocation of timing wrappers, and a wrapper past the
// estimate is silently heap-allocated on its own — so no strategy, rank
// order or KOR count may compile more operators than it says.
func TestChainOpsWithinEstimate(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[0]), text.Pipeline{})
	queries := []*tpq.Query{
		workload.Fig5Query(),
		tpq.MustParse(`//person[./address]`),
		tpq.MustParse(`//person[.//business[. ftcontains "Yes"] and .//education[. ftcontains "College"] and .//city[. ftcontains "Phoenix"?]]`),
	}
	for _, q := range queries {
		for n := 0; n <= 4; n++ {
			profiles := map[string]*profile.Profile{"K,V,S": workload.Fig5Profile(n), "V,K,S": workload.Fig5Profile(n), "blend": workload.Fig5Profile(n), "none": nil}
			profiles["V,K,S"].Rank = profile.VKS
			profiles["blend"].Rank = profile.Blend
			for name, prof := range profiles {
				for _, strat := range Strategies {
					for _, access := range []AccessPath{AccessScan, AccessTwigJoin} {
						p, err := BuildWith(ix, q, prof, 10, Options{Strategy: strat, AccessPath: access, Timing: true})
						if err != nil {
							t.Fatal(err)
						}
						nkor := 0
						if prof != nil {
							nkor = len(prof.KORs)
						}
						if limit := maxChainOps(len(p.m.FTUnits()), nkor); len(p.ops) > limit {
							t.Errorf("%s, %d KORs, rank %s, %v/%v: %d operators, estimate %d\n%s",
								q, n, name, strat, access, len(p.ops), limit, p)
						}
					}
				}
			}
		}
	}
}
