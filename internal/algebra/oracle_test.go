package algebra

import (
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// The per-answer routines the vor and kor operators ran before they
// became batch merge joins, kept as differential oracles: a closure, a
// key slice and a DeepValue subtree walk per answer; a cold Index.Score
// probe per (answer, phrase).

// VORKeysFor computes the per-VOR keys of an element.
func VORKeysFor(doc *xmldoc.Document, prof *profile.Profile, e xmldoc.NodeID) []profile.Key {
	if prof == nil || len(prof.VORs) == 0 {
		return nil
	}
	tag := doc.Tag(e)
	lookup := func(attr string) (string, bool) { return doc.DeepValue(e, attr) }
	keys := make([]profile.Key, len(prof.VORs))
	for i, v := range prof.VORs {
		keys[i] = v.KeyFor(tag, lookup)
	}
	return keys
}

// KORContribution computes one KOR's K increment for an element.
func KORContribution(ix *index.Index, kor *profile.KOR, e xmldoc.NodeID) float64 {
	if ix.Document().Tag(e) != kor.Tag {
		return 0
	}
	w := kor.EffectiveWeight()
	total := 0.0
	for _, p := range kor.Phrases {
		total += w * ix.Score(e, p)
	}
	return total
}

// answersOf wraps elements as a synthetic answer stream.
func answersOf(ids []xmldoc.NodeID) *sliceOp {
	s := &sliceOp{}
	for _, e := range ids {
		s.answers = append(s.answers, Answer{Node: e})
	}
	return s
}

// TestVOROpMatchesOracle: the batch vor operator's keys equal the
// per-answer oracle's on every resolution path of DeepValue — an XML
// attribute, a child, a nested descendant, a first descendant that is
// not a child while a later child is, no value at all — for candidates
// in document order, nested in one another, and probed out of order.
func TestVOROpMatchesOracle(t *testing.T) {
	doc, err := xmldoc.ParseString(`<d>
<car color="red"><mileage>10</mileage></car>
<car><color>blue</color><mileage>20</mileage></car>
<car><spec><color>green</color></spec><color>white</color><mileage>5</mileage></car>
<car><spec><color>black</color><car><color>pink</color></car></spec></car>
<car><mileage>7</mileage></car>
<truck><color>red</color></truck>
</d>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(`
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`)
	// The third car's first <color> descendant is nested in <spec>; its
	// own later <color> child must win, as DeepValue has it.
	third := ix.Elements("car")[2]
	if v, _ := doc.DeepValue(third, "color"); v != "white" {
		t.Fatalf("fixture: DeepValue(third car, color) = %q, want white", v)
	}
	inOrder := append(append([]xmldoc.NodeID{}, ix.Elements("car")...), ix.Elements("truck")...)
	reversed := append([]xmldoc.NodeID{}, inOrder...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	for name, ids := range map[string][]xmldoc.NodeID{"document order": inOrder, "reversed": reversed} {
		for _, a := range drain(NewVOROp(answersOf(ids), ix, prof)) {
			if want := VORKeysFor(doc, prof, a.Node); !reflect.DeepEqual(a.VKeys, want) {
				t.Errorf("%s, node %d (%s): keys %+v, oracle %+v", name, a.Node, doc.Path(a.Node), a.VKeys, want)
			}
		}
	}
}

// TestScoringOpsMatchOracleXMark runs the vor and kor operators over
// every person of a generated document in batches and compares each
// answer with the per-answer oracles, exactly (same scorer calls, same
// summation order).
func TestScoringOpsMatchOracleXMark(t *testing.T) {
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[0])
	ix := index.Build(doc, text.Pipeline{})
	prof := workload.Fig5Profile(4)
	var op Operator = NewVOROp(answersOf(ix.Elements("person")), ix, prof)
	for _, kor := range prof.KORs {
		op = NewKOROp(op, ix, kor, "")
	}
	out := drain(op)
	if len(out) != ix.TagCount("person") || len(out) == 0 {
		t.Fatalf("%d answers for %d persons", len(out), ix.TagCount("person"))
	}
	for _, a := range out {
		if want := VORKeysFor(doc, prof, a.Node); !reflect.DeepEqual(a.VKeys, want) {
			t.Fatalf("person %d: keys %+v, oracle %+v", a.Node, a.VKeys, want)
		}
		want := 0.0
		for _, kor := range prof.KORs {
			want += KORContribution(ix, kor, a.Node)
		}
		if a.K != want {
			t.Fatalf("person %d: K = %v, oracle %v", a.Node, a.K, want)
		}
	}
}

// TestMatchRequiredDoesNotAllocate: the scan access path runs
// MatchRequired once per element of the distinguished tag, so after the
// navigation scratch is warm it must not touch the heap (it used to
// rebuild the required-unit slice per candidate).
func TestMatchRequiredDoesNotAllocate(t *testing.T) {
	ix := dealerIndex(t)
	for _, q := range []string{
		`//car[./description[. ftcontains "good condition"] and price < 2000]`,
		`//dealer//car[.//description and price < 2000]`,
		`//car[price < 2000]`,
	} {
		m := NewMatcher(ix, tpq.MustParse(q))
		cars := ix.Elements("car")
		for _, c := range cars {
			m.MatchRequired(c)
		}
		i := 0
		if n := testing.AllocsPerRun(100, func() {
			m.MatchRequired(cars[i%len(cars)])
			i++
		}); n != 0 {
			t.Errorf("%s: MatchRequired allocates %v times per candidate, want 0", q, n)
		}
	}
}
