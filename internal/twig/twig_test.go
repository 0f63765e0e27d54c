package twig

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

func buildDoc(t testing.TB, src string) *index.Index {
	t.Helper()
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc, text.Pipeline{})
}

// served runs q through the Evaluator, the one join the plan layer
// calls.
func served(t testing.TB, ix *index.Index, q *tpq.Query) []xmldoc.NodeID {
	t.Helper()
	got, _, err := NewEvaluator(ix, q).Distinguished(context.Background())
	if err != nil {
		t.Fatalf("evaluator on %s: %v", q, err)
	}
	return got
}

// distinguished runs q through the two-sweep oracle and the served join
// alike, fails on any disagreement, and returns the served answer. With
// required keywords the oracle is oracleDistinguished ∩ "every required
// FT unit holds" (the scan path's ftjoin): the served join keeps every
// such candidate and no structural reject, and where every required
// keyword restricts its own node's stream (keywordsCovered) it keeps
// nothing else.
func distinguished(t testing.TB, ix *index.Index, q *tpq.Query) []xmldoc.NodeID {
	t.Helper()
	structural, got := oracleDistinguished(ix, q), served(t, ix, q)
	want := keywordFilter(ix, q, structural)
	ok := slices.Equal(keywordFilter(ix, q, got), want) && sortedSubset(got, structural)
	if keywordsCovered(q) {
		ok = ok && slices.Equal(got, want)
	}
	if !ok {
		t.Fatalf("twigjoin %v vs oracle %v (structure alone %v)\nq: %s\ndoc: %s", got, want, structural, q, ix.Document().XMLString())
	}
	return got
}

// keywordFilter keeps the candidates whose every required FT unit holds,
// as the scan path's ftjoin decides it.
func keywordFilter(ix *index.Index, q *tpq.Query, cands []xmldoc.NodeID) []xmldoc.NodeID {
	m := algebra.NewMatcher(ix, q)
	var out []xmldoc.NodeID
	for _, e := range cands {
		keep := true
		for _, u := range m.FTUnits() {
			if sat, _ := m.EvalUnit(u, e); !m.Units()[u].Optional && !sat {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, e)
		}
	}
	return out
}

// keywordsCovered reports whether every required keyword predicate
// sits on a node whose own stream it restricts: a non-wildcard join leaf
// or distinguished node that no other required phrase restricts (a
// node restricted by several phrases streams the shortest list only).
func keywordsCovered(q *tpq.Query) bool {
	leaves := requiredLeaves(q)
	for l, n := range q.Nodes {
		for _, p := range requiredPhrases(q, l) {
			if n.Tag == "*" || (l != q.Dist && !slices.Contains(leaves, l)) {
				return false
			}
			for _, d := range q.Descendants(l) {
				for _, other := range requiredPhrases(q, d) {
					if other != p {
						return false
					}
				}
			}
		}
	}
	return true
}

// requiredPhrases returns the phrases of node i's required ftcontains
// predicates.
func requiredPhrases(q *tpq.Query, i int) []string {
	var out []string
	for _, ft := range q.Nodes[i].FT {
		if !ft.Optional && !q.OnOptionalBranch(i) {
			out = append(out, ft.Phrase)
		}
	}
	return out
}

// sortedSubset reports whether the ascending list sub is a subset of
// the ascending list of.
func sortedSubset(sub, of []xmldoc.NodeID) bool {
	i := 0
	for _, x := range sub {
		for i < len(of) && of[i] < x {
			i++
		}
		if i == len(of) || of[i] != x {
			return false
		}
	}
	return true
}

func TestDistinguishedBasic(t *testing.T) {
	ix := buildDoc(t, `
<site>
  <people>
    <person><profile><business>Yes</business></profile></person>
    <person><name>no profile</name></person>
    <person><profile><gender>male</gender></profile></person>
  </people>
</site>`)
	q := tpq.MustParse(`//person(*)[.//business]`)
	got := distinguished(t, ix, q)
	if len(got) != 1 {
		t.Fatalf("candidates = %v", got)
	}
	if ix.Document().Tag(got[0]) != "person" {
		t.Errorf("wrong tag")
	}
}

func TestPCvsAD(t *testing.T) {
	ix := buildDoc(t, `<a><b><c/></b><c/></a>`)
	// pc: only the direct c child of a.
	pc := distinguished(t, ix, tpq.MustParse(`//a/c`))
	if len(pc) != 1 {
		t.Fatalf("pc candidates = %v", pc)
	}
	// ad: both c elements.
	ad := distinguished(t, ix, tpq.MustParse(`//a//c`))
	if len(ad) != 2 {
		t.Fatalf("ad candidates = %v", ad)
	}
}

func TestAbsoluteRoot(t *testing.T) {
	ix := buildDoc(t, `<a><a><b/></a></a>`)
	abs := distinguished(t, ix, tpq.MustParse(`/a/a`))
	if len(abs) != 1 {
		t.Fatalf("abs = %v", abs)
	}
	rel := distinguished(t, ix, tpq.MustParse(`//a`))
	if len(rel) != 2 {
		t.Fatalf("rel = %v", rel)
	}
}

func TestOptionalBranchesIgnored(t *testing.T) {
	ix := buildDoc(t, `<a><b/></a>`)
	q := tpq.MustParse(`//a[./b and ./missing?]`)
	got := distinguished(t, ix, q)
	if len(got) != 1 {
		t.Fatalf("optional branch must not filter: %v", got)
	}
}

func TestWildcardCandidates(t *testing.T) {
	ix := buildDoc(t, `<a><b><c/></b><d/></a>`)
	got := distinguished(t, ix, tpq.MustParse(`//a//*`))
	if len(got) != 3 { // b, c, d (a is the required ancestor)
		t.Fatalf("wildcard candidates = %v", got)
	}
	got = distinguished(t, ix, tpq.MustParse(`//a/*[./c]`))
	if len(got) != 1 || ix.Document().Tag(got[0]) != "b" {
		t.Fatalf("constrained wildcard = %v", got)
	}
}

func TestEmptyWhenTagMissing(t *testing.T) {
	ix := buildDoc(t, `<a><b/></a>`)
	if got := distinguished(t, ix, tpq.MustParse(`//a[./zzz]`)); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
	if got := distinguished(t, ix, tpq.MustParse(`//zzz`)); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

// randomStructuralQuery builds a predicate-free pattern over small tags
// (including the wildcard).
func randomStructuralQuery(r *rand.Rand) *tpq.Query {
	tags := []string{"a", "b", "c", "d", "*"}
	axis := func() tpq.Axis {
		if r.Intn(2) == 0 {
			return tpq.Child
		}
		return tpq.Descendant
	}
	q := tpq.NewQuery(tags[r.Intn(len(tags))], tpq.Descendant)
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		parent := r.Intn(len(q.Nodes))
		q.AddChild(parent, tags[r.Intn(len(tags))], axis())
	}
	q.Dist = r.Intn(len(q.Nodes))
	return q
}

// randomKeywordQuery is randomStructuralQuery with ftcontains
// predicates on random nodes — the distinguished node, leaves, shared
// and wildcard nodes alike — a quarter of them optional.
func randomKeywordQuery(r *rand.Rand) *tpq.Query {
	q := randomStructuralQuery(r)
	for i := range q.Nodes {
		for r.Intn(3) == 0 {
			q.Nodes[i].FT = append(q.Nodes[i].FT, tpq.FTPred{
				Phrase:   randomWords[r.Intn(len(randomWords))],
				Optional: r.Intn(4) == 0,
				Weight:   1,
			})
		}
	}
	return q
}

// randomWords is the vocabulary of the random documents' text.
var randomWords = []string{"foo", "bar"}

func randomDoc(r *rand.Rand) *index.Index {
	tags := []string{"a", "b", "c", "d"}
	b := xmldoc.NewBuilder()
	var build func(depth, budget int) int
	build = func(depth, budget int) int {
		used := 1
		b.Start(tags[r.Intn(len(tags))])
		if r.Intn(3) == 0 {
			b.Text(randomWords[r.Intn(len(randomWords))])
		}
		for used < budget && depth < 5 && r.Intn(3) != 0 {
			used += build(depth+1, budget-used)
		}
		b.End()
		return used
	}
	build(0, 2+r.Intn(50))
	return index.Build(b.MustDocument(), text.Pipeline{})
}

// TestPropertyAgreesWithMatcher: the served join and the oracle must
// each accept exactly the elements the scan path's per-candidate matcher
// accepts, over random documents and structural patterns.
func TestPropertyAgreesWithMatcher(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for iter := 0; iter < 800; iter++ {
		ix := randomDoc(r)
		q := randomStructuralQuery(r)
		m := algebra.NewMatcher(ix, q)
		// The tag list is in document order, so want is sorted and
		// element-wise equality also pins the subjects' output order.
		var want []xmldoc.NodeID
		for _, e := range ix.Elements(q.Nodes[q.Dist].Tag) {
			if m.MatchRequired(e) {
				want = append(want, e)
			}
		}
		for _, subject := range []struct {
			name string
			got  []xmldoc.NodeID
		}{
			{"evaluator", served(t, ix, q)},
			{"oracle", oracleDistinguished(ix, q)},
		} {
			if !slices.Equal(subject.got, want) {
				t.Fatalf("iter %d: %s %v vs matcher %v\nq: %s\ndoc: %s",
					iter, subject.name, subject.got, want, q, ix.Document().XMLString())
			}
		}
	}
}

// TestKeywordStreamsAgreeWithScan: with required and optional ftcontains
// on random nodes of random patterns over documents with words, the
// served join keeps exactly what the two-sweep oracle ∩ ftjoin keeps
// (distinguished), and after ftjoin its answer is the scan path's.
func TestKeywordStreamsAgreeWithScan(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for iter := 0; iter < 3000; iter++ {
		ix, q := randomDoc(r), randomKeywordQuery(r)
		got := keywordFilter(ix, q, distinguished(t, ix, q))
		m := algebra.NewMatcher(ix, q)
		var want []xmldoc.NodeID
		for _, e := range ix.Elements(q.Nodes[q.Dist].Tag) {
			if m.MatchRequired(e) {
				want = append(want, e)
			}
		}
		if want = keywordFilter(ix, q, want); !slices.Equal(got, want) {
			t.Fatalf("iter %d: join + ftjoin %v vs scan %v\nq: %s\ndoc: %s", iter, got, want, q, ix.Document().XMLString())
		}
	}
}

// TestKeywordSharedNodeKeepsItsStream: b is shared by the leaves c and
// d, so the phrase on c must not restrict it — the b that holds a d has
// no "foo", and the answer needs it for d.
func TestKeywordSharedNodeKeepsItsStream(t *testing.T) {
	ix := buildDoc(t, `<r><a><b><c>foo</c></b><b><d/></b></a></r>`)
	q := tpq.MustParse(`//a(*)[.//b[.//c[. ftcontains "foo"] and .//d]]`)
	if got := distinguished(t, ix, q); len(got) != 1 || ix.Document().Tag(got[0]) != "a" {
		t.Fatalf("candidates = %v, want the a", got)
	}
}

// TestKeywordRestrictionCounts pins which streams a required phrase
// restricts, through the join's counters: the leaf and the
// distinguished node above it, not a wildcard, and both of two nested
// same-tag nodes.
func TestKeywordRestrictionCounts(t *testing.T) {
	ix := buildDoc(t, `<r><a><b>foo</b></a><a><b>bar</b></a><a><c>foo</c><a>bar</a></a></r>`)
	for _, c := range []struct {
		q                     string
		phrasePruned, emitted int
	}{
		// a keeps the 2 of 4 holding foo, b the 1 of 2.
		{`//a(*)[./b[. ftcontains "foo"]]`, 3, 1},
		// The wildcard keeps its stream; b still loses one.
		{`//*(*)[./b[. ftcontains "foo"]]`, 1, 1},
		// Both a nodes stream the 2 a holding foo.
		{`//a(*)[.//a[. ftcontains "foo"]]`, 4, 0},
		// An optional phrase restricts nothing.
		{`//a(*)[./b[. ftcontains "foo"?]]`, 0, 2},
	} {
		q := tpq.MustParse(c.q)
		distinguished(t, ix, q)
		got, stats, err := NewEvaluator(ix, q).Distinguished(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.PhrasePruned != c.phrasePruned || len(got) != c.emitted || stats.Read != ix.TagCount(q.Nodes[q.Dist].Tag) {
			t.Errorf("%s: phrase-pruned %d, emitted %d, read %d; want %d, %d and the whole tag list",
				c.q, stats.PhrasePruned, len(got), stats.Read, c.phrasePruned, c.emitted)
		}
	}
}

// TestMatcherTurnsAtRootedBindings: a unit's matcher path turns at the
// lowest common ancestor of its node and the distinguished node, and
// the binding it turns at must hang from the pattern root — else the
// scan path accepted what the join's Y-pattern rejects. Inner b has
// the a above it but no c child, outer b the c child but no a above;
// x has the a child but is not the document root.
func TestMatcherTurnsAtRootedBindings(t *testing.T) {
	for _, c := range []struct{ doc, q string }{
		{`<b><c/><a><b><d/></b></a></b>`, `//a//b[./c]//d`},
		{`<r><x><a/><c/></x></r>`, `/*[./a]//c`},
	} {
		ix, q := buildDoc(t, c.doc), tpq.MustParse(c.q)
		m := algebra.NewMatcher(ix, q)
		for _, e := range ix.Elements(q.Nodes[q.Dist].Tag) {
			if m.MatchRequired(e) {
				t.Errorf("%s on %s: the matcher accepts %d", c.q, c.doc, e)
			}
		}
		if got := distinguished(t, ix, q); len(got) != 0 {
			t.Errorf("%s on %s: the join accepts %v", c.q, c.doc, got)
		}
	}
}

func BenchmarkTwigVsMatcher(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	tags := []string{"a", "b", "c", "d"}
	bl := xmldoc.NewBuilder()
	var build func(depth, budget int) int
	build = func(depth, budget int) int {
		used := 1
		bl.Start(tags[r.Intn(len(tags))])
		for used < budget && depth < 8 && r.Intn(3) != 0 {
			used += build(depth+1, budget-used)
		}
		bl.End()
		return used
	}
	bl.Start("root")
	for used := 0; used < 20000; {
		used += build(1, 20000-used)
	}
	bl.End()
	ix := index.Build(bl.MustDocument(), text.Pipeline{})
	q := tpq.MustParse(`//a[./b and .//c]//d`)

	b.Run("twig", func(b *testing.B) {
		b.ReportAllocs()
		ev := NewEvaluator(ix, q)
		for i := 0; i < b.N; i++ {
			if _, _, err := ev.Distinguished(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("matcher", func(b *testing.B) {
		b.ReportAllocs()
		m := algebra.NewMatcher(ix, q)
		for i := 0; i < b.N; i++ {
			for _, e := range ix.Elements("d") {
				m.MatchRequired(e)
			}
		}
	})
}
