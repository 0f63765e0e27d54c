package plan

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// checkTiered holds every strategy's plan for (q, prof) on the join, at
// every tested capacity, one and two workers and k ∈ {1, 2, 3, 10, past
// the last match}, to the untiered oracle's top k — nodes, order, K and
// S, and no node twice — and a tiered plan to one worker. It returns how
// many of the runs were tiered.
func checkTiered(t *testing.T, ix *index.Index, q *tpq.Query, prof *profile.Profile, label string) int {
	t.Helper()
	tiered := 0
	for _, k := range []int{1, 2, 3, 10, ix.TagCount(q.Nodes[q.Dist].Tag) + 1} {
		for _, strat := range Strategies {
			want, err := oracleExecute(ix, q, prof, k, strat, AccessTwigJoin)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range testCaps {
				for _, par := range []int{1, 2} {
					p, err := buildWith(ix, q, prof, k, Options{Strategy: strat, AccessPath: AccessTwigJoin, Parallelism: par}, c)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s k=%d %v capacity %d par %d", label, k, strat, c, par)
					got := p.Execute()
					assertSameRanking(t, want, got, at)
					seen := map[xmldoc.NodeID]bool{}
					for _, a := range got {
						if seen[a.Node] {
							t.Fatalf("%s: node %d answered twice", at, a.Node)
						}
						seen[a.Node] = true
					}
					if p.tiers != nil {
						tiered++
						if p.Workers() != 1 {
							t.Fatalf("%s: a tiered plan ran %d workers", at, p.Workers())
						}
					}
				}
			}
		}
	}
	return tiered
}

// withRank is prof's source with its rank line replaced.
func withRank(src, rank string) *profile.Profile {
	return profile.MustParseProfile(strings.Replace(src, "rank K,V,S", "rank "+rank, 1))
}

// fig5Src is the Fig. 5 profile with n KORs, with or without its VOR.
func fig5Src(n int, vor bool) string {
	var sb strings.Builder
	for _, k := range workload.Fig5Profile(n).SortKORsByPriority() {
		fmt.Fprintf(&sb, "kor %s priority %d: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n", k.Name, k.Priority, k.Phrases[0])
	}
	if vor {
		sb.WriteString("vor pi5: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y\n")
	}
	return sb.String() + "rank K,V,S\n"
}

// TestTieredMatchesOracle: a Push plan ranking K,V,S feeds its chain
// tier by tier and stops at the first tier that cannot reach the top k;
// every plan — tiered or not — returns the untiered chain's top k, over
// strategy × capacity × workers × k ∈ {1, 2, 3, 10, > matches} × 0–4 KORs ×
// rank order, on a seeded XMark document and on random documents with
// words (with KORs about another tag, weights, a VOR and required
// keywords). A hand-built document covers an empty top tier, two tiers
// with one bound and a run that falls through to the K = 0 tier.
func TestTieredMatchesOracle(t *testing.T) {
	xix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[0]), text.Pipeline{})
	tiered := 0
	for _, qs := range []string{
		`//person(*)[.//business[. ftcontains "Yes"]]`,
		`//person(*)[./address[./country[. ftcontains "United States"]]]`,
		`//person[./profile[./interest and ./age]]`,
		`//person[./address[./city and ./country] and .//business]/address`,
	} {
		q := tpq.MustParse(qs)
		for n := 0; n <= 4; n++ {
			for _, vor := range []bool{true, false} {
				for _, rank := range []string{"K,V,S", "V,K,S", "blend"} {
					if n == 0 && !vor {
						continue
					}
					tiered += checkTiered(t, xix, q, withRank(fig5Src(n, vor), rank), fmt.Sprintf("%s n=%d vor=%v rank %s", qs, n, vor, rank))
				}
			}
		}
	}
	// Push ranking K,V,S with a KOR, at 5 k × 3 capacities × 2 workers,
	// on the three person-rooted queries: the fourth's answer is below
	// its pattern root.
	if want := 3 * 4 * 2 * 5 * 3 * 2; tiered != want {
		t.Errorf("XMark: %d tiered runs, want %d", tiered, want)
	}

	r := rand.New(rand.NewSource(71))
	tiered = 0
	for iter := 0; iter < 120; iter++ {
		ix, prof := wordDoc(r), randomTierProfile(r)
		q := tpq.MustParse(wordQueries[r.Intn(len(wordQueries))])
		tiered += checkTiered(t, ix, q, prof, fmt.Sprintf("iter %d %s", iter, q))
	}
	if tiered == 0 {
		t.Error("no random case ran tiered")
	}

	// foo and bar are each held by one a, at one tf: their tiers share a
	// bound, and no a holds both, so the top tier is empty. At k = 10 the
	// run falls through every tier to the five a's holding neither.
	ix := buildIndex(t, `<r><a><b>foo</b></a><a><b>bar</b></a><a><b>baz</b></a><a><b/></a><a><b>baz qux</b></a><a><b/></a><a><b/></a></r>`)
	q := tpq.MustParse(`//a[./b]`)
	prof := profile.MustParseProfile(`kor k1: x.tag = a & y.tag = a & ftcontains(x, "foo") => x < y
kor k2: x.tag = a & y.tag = a & ftcontains(x, "bar") => x < y
rank K,V,S`)
	checkTiered(t, ix, q, prof, "hand-built")
	p, err := BuildWith(ix, q, prof, 10, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Execute()
	ts := p.tiers
	if ts == nil || len(ts.tiers) != 4 || len(ts.tierMembers(ts.tiers[0].held)) != 0 || ts.tiers[1].bound != ts.tiers[2].bound {
		t.Fatalf("tiers %+v: want an empty top tier and two with one bound", ts)
	}
	if js := p.JoinStats(); js.Read != 7 || js.Emitted != 7 {
		t.Errorf("join stats %+v: want every a streamed and emitted", js)
	}

	// The class rule. The a's hold c as an XML attribute, a child or a
	// nested descendant, as 33, 33.0, " 33 ", 34 or red, and every a holds
	// kind="x". Every variant's plans return the oracle's top k, and a
	// Push plan adds the class to its tier lists exactly when the lead VOR
	// is a form-(1) rule about a without common equalities.
	ix = buildIndex(t, `<r>`+
		`<a c="33" kind="x"><b>foo</b><e>2</e></a>`+
		`<a kind="x"><c>33.0</c><b>foo bar</b><e>1</e></a>`+
		`<a kind="x"><d><c> 33 </c></d><b>foo bar</b><e>3</e></a>`+
		`<a kind="x"><c>red</c><b>foo</b><e>0</e></a>`+
		`<a kind="x"><b>foo</b><c>34</c><g>on</g></a>`+
		`<a kind="x"><b>bar</b><c>33</c><e>1</e><g>on</g></a>`+
		`<a kind="x"><b>bar</b><g>on</g></a>`+
		`<a kind="x"><b/><c>33</c></a>`+
		`<a kind="x"><b>foo foo</b><e>1</e></a>`+
		`</r>`)
	const kors = `kor k1 priority 1: x.tag = a & y.tag = a & ftcontains(x, "foo") => x < y
kor k2 priority 2: x.tag = a & y.tag = a & ftcontains(x, "bar") => x < y
vor w priority 5: x.tag = a & y.tag = a & x.e < y.e => x < y
`
	for _, c := range []struct {
		name, rule string
		class      int // the class's size; -1: no class rule
	}{
		{"lead", `priority 1: x.tag = a & y.tag = a & x.c = 33 & y.c != 33`, 5},
		{"local", `priority 1: x.tag = a & y.tag = a & x.g != "on" & x.c = 33 & y.c != 33 & y.e > 0`, 5},
		{"empty class", `priority 1: x.tag = a & y.tag = a & x.c = 99 & y.c != 99`, 0},
		{"every member", `priority 1: x.tag = a & y.tag = a & x.kind = "x" & y.kind != "x"`, 9},
		{"string", `priority 1: x.tag = a & y.tag = a & x.c = red & y.c != red`, 1},
		{"second", `priority 9: x.tag = a & y.tag = a & x.c = 33 & y.c != 33`, -1},
		{"common", `priority 1: x.tag = a & y.tag = a & x.g = y.g & x.c = 33 & y.c != 33`, -1},
		{"other tag", `priority 1: x.tag = b & y.tag = b & x.c = 33 & y.c != 33`, -1},
	} {
		src := kors + "vor v " + c.rule + " => x < y\nrank K,V,S\n"
		prof := profile.MustParseProfile(src)
		checkTiered(t, ix, q, prof, c.name)
		p, err := BuildWith(ix, q, prof, 1, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ts := p.tiers; ts == nil || (ts.class != 0) != (c.class >= 0) || c.class >= 0 && setSize(ts.sets[len(ts.sets)-1]) != c.class {
			t.Errorf("%s: tiers %+v: want a class of %d (-1: none)", c.name, p.tiers, c.class)
		}
	}
}

// TestTierStopIsStrict: with k = 1, the a holding foo and the one
// holding bar reach the same K, which is also the bound of the other's
// tier; the c = 33 rule prefers the foo holder in one document and the
// bar holder in the other. When the rule is behind another VOR it is no
// class rule: the source must visit both tiers — a tied K can still
// lose on V — and stop at the K = 0 tier, streaming 2 members. When it
// leads, the tier holding the class member is visited first, whichever
// phrase it holds, and the tier outside the class is skipped before it
// is merged: 1 member.
func TestTierStopIsStrict(t *testing.T) {
	const kors = `kor k1: x.tag = a & y.tag = a & ftcontains(x, "foo") => x < y
kor k2: x.tag = a & y.tag = a & ftcontains(x, "bar") => x < y
vor v priority 2: x.tag = a & y.tag = a & x.c = 33 & y.c != 33 => x < y
`
	q := tpq.MustParse(`//a[./b]`)
	for _, c := range []struct {
		name, vor string // vor: a rule ahead of v, or none
		class     bool
		streamed  int
	}{
		{"class rule", "", true, 1},
		{"behind another rule", "vor w priority 1: x.tag = a & y.tag = a & x.e < y.e => x < y\n", false, 2},
	} {
		prof := profile.MustParseProfile(kors + c.vor + "rank K,V,S\n")
		for _, src := range []string{
			`<r><a><b>foo</b><c>33</c></a><a><b>bar</b></a><a><b/></a></r>`,
			`<r><a><b>foo</b></a><a><b>bar</b><c>33</c></a><a><b/></a></r>`,
		} {
			at := c.name + " " + src
			ix := buildIndex(t, src)
			want, err := oracleExecute(ix, q, prof, 1, Push, AccessTwigJoin)
			if err != nil {
				t.Fatal(err)
			}
			p, err := BuildWith(ix, q, prof, 1, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, want, p.Execute(), at)
			if ts := p.tiers; ts == nil || (ts.class != 0) != c.class || tiersAt(ts, want[0].K) != 2*len(ts.sets)-2 {
				t.Fatalf("%s: tiers %+v, answer K %v: want the k-th K equal to the {foo} and {bar} tiers' bound", at, ts, want[0].K)
			}
			if js := p.JoinStats(); js.Read != c.streamed {
				t.Errorf("%s: the source streamed %d members, want %d", at, js.Read, c.streamed)
			}
		}
	}
}

// setSize is how many elements a rank set holds.
func setSize(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// tiersAt is how many of ts's tiers have the given bound.
func tiersAt(ts *tierSource, bound float64) int {
	n := 0
	for _, t := range ts.tiers {
		if t.bound == bound {
			n++
		}
	}
	return n
}

// TestClassStopIsStrict: k = 1, foo and bar each held by two a's, once
// and twice, so the {foo} and {bar} tiers share a bound, which the a's
// holding a phrase twice reach. In the first document the k-th answer,
// the a holding foo twice, is in the class (c = 33) with K equal to the
// bound: the {foo} and {bar} tiers outside the class are skipped, but
// not the {bar} tier in the class, which holds the winner on the second
// VOR. In the second the k-th is outside the class, and the {bar} tier
// outside it holds the winner: a stop that reads K alone would skip it.
// In the third three a's hold foo and bar, one in the class: it is the
// k-th, and the top tier's part outside the class is never merged.
func TestClassStopIsStrict(t *testing.T) {
	prof := profile.MustParseProfile(`kor k1: x.tag = a & y.tag = a & ftcontains(x, "foo") => x < y
kor k2: x.tag = a & y.tag = a & ftcontains(x, "bar") => x < y
vor v priority 1: x.tag = a & y.tag = a & x.c = 33 & y.c != 33 => x < y
vor w priority 2: x.tag = a & y.tag = a & x.d = 1 & y.d != 1 => x < y
rank K,V,S`)
	q := tpq.MustParse(`//a[./b]`)
	for _, c := range []struct {
		src     string
		winner  int // the a at this position (from 0) is the top 1
		visited int
	}{
		{`<r><a><b>foo foo</b><c>33</c></a><a><b>foo</b></a><a><b>bar</b></a><a><b>bar bar</b><c>33</c><d>1</d></a><a><b/></a></r>`, 3, 2},
		{`<r><a><b>foo foo</b></a><a><b>foo</b></a><a><b>bar</b><c>33</c></a><a><b>bar bar</b><d>1</d></a><a><b/></a></r>`, 3, 4},
		{`<r><a><b>foo bar</b></a><a><b>foo bar</b><c>33</c></a><a><b>foo bar</b><d>1</d></a><a><b/></a></r>`, 1, 1},
	} {
		ix := buildIndex(t, c.src)
		want, err := oracleExecute(ix, q, prof, 1, Push, AccessTwigJoin)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildWith(ix, q, prof, 1, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute()
		assertSameRanking(t, want, got, c.src)
		if ts := p.tiers; ts == nil || ts.class == 0 || tiersAt(ts, got[0].K) < 2 {
			t.Fatalf("%s: tiers %+v, answer K %v: want a class rule and the top K equal to two tiers' bound", c.src, ts, got[0].K)
		}
		if as := ix.Elements("a"); got[0].Node != as[c.winner] {
			t.Errorf("%s: top 1 is n%d, want the a at %d", c.src, got[0].Node, c.winner)
		}
		if js := p.JoinStats(); js.Read != c.visited {
			t.Errorf("%s: the source streamed %d members, want %d", c.src, js.Read, c.visited)
		}
	}
}

// TestClassListMatchesVOR: a person is in the class list of a form-(1)
// rule exactly when the key the vor operator computes for it matches the
// constant — for values held as an XML attribute (id), a child (name)
// and a nested descendant (age, city, gender), numeric and string.
func TestClassListMatchesVOR(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[1]), text.Pipeline{})
	persons := ix.Elements("person")
	name, _ := ix.Document().DeepValue(persons[3], "name")
	for _, atom := range []string{`age = 33`, `age = 33.0`, `age = 70`, `id = "person7"`, `name = "` + name + `"`, `city = Phoenix`, `gender = male`, `age = 200`} {
		attr, c, _ := strings.Cut(atom, " = ")
		prof := profile.MustParseProfile(fmt.Sprintf("vor v: x.tag = person & y.tag = person & x.%s = %s & y.%s != %s => x < y\n", attr, c, attr, c))
		v := prof.VORs[0]
		class := ix.WithValue("person", v.Attr, v.Const)
		op := algebra.NewVOROp(&algebra.ListScanOp{IDs: persons}, ix, prof)
		op.Open()
		buf, in := make([]algebra.Answer, batchCap), 0
		for n := op.NextBatch(buf); n > 0; n = op.NextBatch(buf) {
			for _, a := range buf[:n] {
				_, found := slices.BinarySearch(class, a.Node)
				if found != v.MatchesConst(&a.VKeys[0]) {
					t.Fatalf("%s: n%d in the class list %v, vor's key %+v", atom, a.Node, found, a.VKeys[0])
				}
				if found {
					in++
				}
			}
		}
		if in != len(class) || (in == 0) != (c == "200") {
			t.Errorf("%s: %d of the class list's %d are persons", atom, in, len(class))
		}
	}
}

// TestForeignKORLeavesBoundsAlone: a KOR about items scores 0 on every
// person, so a person query prunes with it as without it — the same
// kor-scorebounds and the same drops, position by position, once its
// kor and the prune behind it are set aside — and returns the oracle's
// top k.
func TestForeignKORLeavesBoundsAlone(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[1]), text.Pipeline{})
	q := workload.Fig5Query()
	without := fig5Src(2, false)
	with := strings.Replace(without, "rank K,V,S", "kor it priority 9: x.tag = item & y.tag = item & ftcontains(x, \"honour\") => x < y\nrank K,V,S", 1)
	if it := profile.MustParseProfile(with).SortKORsByPriority()[2]; algebra.MaxKORScore(ix, it, nil) == 0 {
		t.Fatal("no item holds the item rule's phrase: the case would test nothing")
	}
	for _, strat := range []Strategy{Push, InterleaveNoSort} {
		for _, access := range []AccessPath{AccessScan, AccessTwigJoin} {
			at := fmt.Sprintf("%v/%v", strat, access)
			run := func(src string) ([]algebra.Answer, []algebra.OpStats) {
				p, err := BuildWith(ix, q, profile.MustParseProfile(src), 10, Options{Strategy: strat, AccessPath: access, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				return p.Execute(), p.Stats()
			}
			want, base := run(without)
			got, stats := run(with)
			oracle, err := oracleExecute(ix, q, profile.MustParseProfile(with), 10, strat, access)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, oracle, got, at)
			assertSameRanking(t, want, got, at)
			it := slices.IndexFunc(stats, func(s algebra.OpStats) bool { return s.Name == "kor(it)" })
			stats = append(stats[:it], stats[it+2:]...)
			if fmt.Sprint(stats) != fmt.Sprint(base) {
				t.Errorf("%s: with the item rule\n%s\nwithout it\n%s", at, describeCounters(stats), describeCounters(base))
			}
		}
	}
}

// TestTierPhraseCap: a profile with maxTierPhrases phrases runs tiered,
// one with a phrase more runs the untiered join, with or without a class
// rule leading its VORs — the class list is no phrase — and all return
// the oracle's top k.
func TestTierPhraseCap(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})
	phrases := []string{"male", "United States", "College", "Phoenix", "Boston", "Graduate School", "Germany", "Seattle"}
	for _, class := range []bool{false, true} {
		for _, n := range []int{maxTierPhrases, maxTierPhrases + 1} {
			var sb strings.Builder
			for i, ph := range phrases[:n] {
				fmt.Fprintf(&sb, "kor k%d priority %d: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n", i, i+1, ph)
			}
			if class {
				sb.WriteString("vor v priority 9: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y\n")
			}
			sb.WriteString("rank K,V,S\n")
			prof := profile.MustParseProfile(sb.String())
			at := fmt.Sprintf("%d phrases, class rule %v", n, class)
			want, err := oracleExecute(ix, workload.Fig5Query(), prof, 10, Push, AccessTwigJoin)
			if err != nil {
				t.Fatal(err)
			}
			p, err := BuildWith(ix, workload.Fig5Query(), prof, 10, Options{Strategy: Push, AccessPath: AccessTwigJoin, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, want, p.Execute(), at)
			if (p.tiers != nil) != (n <= maxTierPhrases) {
				t.Errorf("%s: tiered %v, want %v", at, p.tiers != nil, n <= maxTierPhrases)
			}
			if ts := p.tiers; ts != nil && (ts.class != 0) != class {
				t.Errorf("%s: class bit %b", at, ts.class)
			}
		}
	}
}

// TestTieredSelfTimesSumToWall: a tiered plan's joins run inside its
// source operator and are counted once — the twigjoin entry's time is
// part of the source's inclusive time, not added again — so every
// operator's self time is non-negative and they sum to the final
// operator's inclusive time, which fits in the execution's wall time.
func TestTieredSelfTimesSumToWall(t *testing.T) {
	ix := index.Build(xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]), text.Pipeline{})
	for n := 1; n <= 4; n++ {
		p, err := BuildWith(ix, workload.Fig5Query(), workload.Fig5Profile(n), 10, Options{Parallelism: 1, Timing: true})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		p.Execute()
		wall := time.Since(start).Nanoseconds()
		stats := p.Stats()
		if p.tiers == nil || stats[0].Kind() != "twigjoin" || stats[0].WallNS <= 0 {
			t.Fatalf("n = %d: plan %s, join entry %+v: want a timed tiered join", n, p, stats[0])
		}
		var sum, prev int64
		for _, s := range stats {
			self := s.WallNS - prev
			if self < 0 {
				t.Errorf("n = %d: %s has self time %d ns", n, s.Name, self)
			}
			sum += self
			prev = s.WallNS
		}
		if last := stats[len(stats)-1].WallNS; sum != last || last > wall {
			t.Errorf("n = %d: self times sum to %d ns, the final operator's time is %d, the execution took %d", n, sum, last, wall)
		}
	}
}

// TestTierMembersMatchOracle: for every held mask, class bits and 0
// included, a tier's members are the galloping merge's — over 1–4
// phrase sets and an optional class, with the whole tag list as stream
// and a keyword-restricted one — on random documents with 0, 1, 63, 64,
// 65 and 128 a's, around the tail word's mask.
func TestTierMembersMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for _, n := range []int{0, 1, 63, 64, 65, 128} {
		for iter := 0; iter < 8; iter++ {
			checkTierMembers(t, countDoc(r, n), r, fmt.Sprintf("%d a's, iter %d", n, iter))
		}
	}
}

// FuzzTierMembers is TestTierMembersMatchOracle on a document drawn from
// the seed, with up to 255 a's.
func FuzzTierMembers(f *testing.F) {
	for _, n := range []uint8{0, 1, 63, 64, 65, 128} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		checkTierMembers(t, countDoc(r, int(n)), r, fmt.Sprintf("seed %d, %d a's", seed, n))
	})
}

// checkTierMembers holds a tier source over ix's a's, a random subset of
// tierWords' rank sets and sometimes a class (c = 0, 1 or 2), to the
// oracle's merge over the same lists, for every held mask, on the whole
// stream and on the a's holding a random word.
func checkTierMembers(t *testing.T, ix *index.Index, r *rand.Rand, at string) {
	t.Helper()
	elems := ix.Elements("a")
	ts := &tierSource{elems: elems}
	var lists [][]xmldoc.NodeID
	for _, w := range r.Perm(len(tierWords))[:1+r.Intn(len(tierWords))] {
		ts.sets = append(ts.sets, ix.ContainingSet("a", tierWords[w]))
		lists = append(lists, ix.Containing("a", tierWords[w]))
	}
	if r.Intn(2) == 0 {
		c := tpq.NumValue(float64(r.Intn(3)))
		ts.class = 1 << len(ts.sets)
		ts.sets = append(ts.sets, ix.WithValueSet("a", "c", c))
		lists = append(lists, ix.WithValue("a", "c", c))
	}
	for _, stream := range [][]xmldoc.NodeID{elems, ix.Containing("a", tierWords[r.Intn(len(tierWords))])} {
		ts.stream = stream
		for held := range uint32(1) << len(ts.sets) {
			if got, want := ts.tierMembers(held), oracleTierMembers(lists, stream, held); !slices.Equal(got, want) {
				t.Fatalf("%s, %d sets (class bit %b), stream of %d, held %b: members %v, want %v",
					at, len(ts.sets), ts.class, len(stream), held, got, want)
			}
		}
	}
}

// countDoc is a random document with exactly n a elements, each holding
// a few of tierWords or none and sometimes a c valued 0–2, between d
// elements holding words too.
func countDoc(r *rand.Rand, n int) *index.Index {
	b := xmldoc.NewBuilder()
	b.Start("r")
	leaf := func(tag string) {
		b.Start(tag)
		words := make([]string, r.Intn(3))
		for i := range words {
			words[i] = tierWords[r.Intn(len(tierWords))]
		}
		b.Text(strings.Join(words, " "))
		b.End()
	}
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			leaf("d")
		}
		b.Start("a")
		leaf("b")
		if r.Intn(2) == 0 {
			b.Start("c")
			b.Text(fmt.Sprint(r.Intn(3)))
			b.End()
		}
		b.End()
	}
	b.End()
	return index.Build(b.MustDocument(), text.Pipeline{})
}

// buildIndex parses src and indexes it.
func buildIndex(t *testing.T, src string) *index.Index {
	t.Helper()
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc, text.Pipeline{})
}

// tierWords is the vocabulary of wordDoc's text and the random profiles.
var tierWords = []string{"foo", "bar", "baz", "qux"}

// wordQueries are the random cases' patterns: a-rooted (tiered when the
// plan is), one with a required keyword, one answering below the root.
var wordQueries = []string{
	`//a[./b]`,
	`//a[.//c and ./b]`,
	`//a(*)[./b[. ftcontains "foo"]]`,
	`//a[./b]/b`,
}

// wordDoc is a random tree of a–d elements, a third of them holding a
// few random words, and every c element a value 0–2.
func wordDoc(r *rand.Rand) *index.Index {
	tags := []string{"a", "b", "c", "d"}
	b := xmldoc.NewBuilder()
	b.Start("r")
	var build func(depth int)
	build = func(depth int) {
		tag := tags[r.Intn(len(tags))]
		b.Start(tag)
		if tag == "c" {
			b.Text(fmt.Sprint(r.Intn(3)))
		} else if r.Intn(3) == 0 {
			words := make([]string, 1+r.Intn(3))
			for i := range words {
				words[i] = tierWords[r.Intn(len(tierWords))]
			}
			b.Text(strings.Join(words, " "))
		}
		for depth < 4 && r.Intn(3) != 0 {
			build(depth + 1)
		}
		b.End()
	}
	for n := 4 + r.Intn(30); n > 0; n-- {
		build(1)
	}
	b.End()
	return index.Build(b.MustDocument(), text.Pipeline{})
}

// randomTierProfile draws 0–4 KORs over tierWords — most about a, some
// about b, some with two phrases or a weight — an optional form-(1) VOR
// on c, sometimes with a second one ahead of it or behind it, and a rank
// order.
func randomTierProfile(r *rand.Rand) *profile.Profile {
	var sb strings.Builder
	n := r.Intn(5)
	for i := 0; i < n; i++ {
		tag := "a"
		if r.Intn(5) == 0 {
			tag = "b"
		}
		fmt.Fprintf(&sb, "kor k%d priority %d", i, i+1)
		if r.Intn(3) == 0 {
			fmt.Fprintf(&sb, " weight %g", []float64{0.5, 2, 3}[r.Intn(3)])
		}
		fmt.Fprintf(&sb, ": x.tag = %s & y.tag = %s & ftcontains(x, %q)", tag, tag, tierWords[r.Intn(len(tierWords))])
		if r.Intn(4) == 0 {
			fmt.Fprintf(&sb, " & ftcontains(x, %q)", tierWords[r.Intn(len(tierWords))])
		}
		sb.WriteString(" => x < y\n")
	}
	if n == 0 || r.Intn(2) == 0 {
		sb.WriteString("vor v priority 2: x.tag = a & y.tag = a & x.c = 1 & y.c != 1 => x < y\n")
		if r.Intn(2) == 0 { // ahead of v, which then is no class rule, or behind it
			fmt.Fprintf(&sb, "vor w priority %d: x.tag = a & y.tag = a & x.c < y.c => x < y\n", 1+2*r.Intn(2))
		}
	}
	sb.WriteString("rank " + []string{"K,V,S", "K,V,S", "V,K,S", "blend"}[r.Intn(4)] + "\n")
	return profile.MustParseProfile(sb.String())
}
