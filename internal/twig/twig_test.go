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
// alike, fails on any disagreement, and returns the common answer.
func distinguished(t testing.TB, ix *index.Index, q *tpq.Query) []xmldoc.NodeID {
	t.Helper()
	want, got := oracleDistinguished(ix, q), served(t, ix, q)
	if !slices.Equal(got, want) {
		t.Fatalf("twigjoin %v vs oracle %v\nq: %s\ndoc: %s", got, want, q, ix.Document().XMLString())
	}
	return got
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

func randomDoc(r *rand.Rand) *index.Index {
	tags := []string{"a", "b", "c", "d"}
	b := xmldoc.NewBuilder()
	var build func(depth, budget int) int
	build = func(depth, budget int) int {
		used := 1
		b.Start(tags[r.Intn(len(tags))])
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
