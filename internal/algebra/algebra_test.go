package algebra

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

const dealerXML = `
<dealer>
  <car>
    <description>It is in good condition. I used it to go to work in NYC.</description>
    <price>500</price>
    <color>red</color>
    <mileage>90000</mileage>
  </car>
  <car>
    <description>Powerful car. low mileage. Eager seller.</description>
    <price>1500</price>
    <color>blue</color>
    <mileage>20000</mileage>
  </car>
  <car>
    <description>best bid wins. good condition. low mileage. NYC pickup.</description>
    <price>900</price>
    <color>red</color>
    <mileage>30000</mileage>
  </car>
  <car>
    <description>good condition but pricey</description>
    <price>5000</price>
    <color>green</color>
    <mileage>10000</mileage>
  </car>
</dealer>`

func dealerIndex(t testing.TB) *index.Index {
	t.Helper()
	doc, err := xmldoc.ParseString(dealerXML)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(doc, text.Pipeline{})
}

func TestMatcherBindings(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./description and price < 2000]`)
	m := NewMatcher(ix, q)
	cars := ix.Elements("car")

	descNode := q.FindByTag("description")[0]
	bs := m.Bindings(descNode, cars[0])
	if len(bs) != 1 || ix.Document().Tag(bs[0]) != "description" {
		t.Fatalf("description bindings = %v", bs)
	}
	// A price pattern node binds to the car's own price child only.
	priceNode := q.FindByTag("price")[0]
	bs = m.Bindings(priceNode, cars[1])
	if len(bs) != 1 {
		t.Fatalf("price bindings = %v", bs)
	}
	if got := ix.Document().TextContent(bs[0]); got != "1500" {
		t.Errorf("bound wrong price: %q", got)
	}
}

func TestMatcherUpwardPath(t *testing.T) {
	// Distinguished node below the root pattern node.
	ix := dealerIndex(t)
	q := tpq.MustParse(`//dealer//description`)
	m := NewMatcher(ix, q)
	descs := ix.Elements("description")
	for _, d := range descs {
		if !m.MatchRequired(d) {
			t.Errorf("description %d should match //dealer//description", d)
		}
	}
	// A pattern with a wrong ancestor tag matches nothing.
	q2 := tpq.MustParse(`//garage//description`)
	m2 := NewMatcher(ix, q2)
	for _, d := range descs {
		if m2.MatchRequired(d) {
			t.Errorf("description %d must not match //garage//description", d)
		}
	}
}

func TestMatcherSiblingBranch(t *testing.T) {
	// NEXI shape: predicate on a branch hanging off an ancestor.
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./color]//description`)
	m := NewMatcher(ix, q)
	descs := ix.Elements("description")
	matched := 0
	for _, d := range descs {
		if m.MatchRequired(d) {
			matched++
		}
	}
	if matched != 3 { // car 3 (green) has color; cars 1,2,3... car without color? all 4 have color except none — check
		// All four cars have color: expect 4.
		if matched != 4 {
			t.Errorf("matched = %d", matched)
		}
	}
}

func TestMatchRequiredConstraints(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[price < 2000]`)
	m := NewMatcher(ix, q)
	cars := ix.Elements("car")
	want := []bool{true, true, true, false}
	for i, c := range cars {
		if got := m.MatchRequired(c); got != want[i] {
			t.Errorf("car %d: MatchRequired = %v, want %v", i, got, want[i])
		}
	}
}

func TestFTUnitsAndScores(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	m := NewMatcher(ix, q)
	fts := m.FTUnits()
	if len(fts) != 1 {
		t.Fatalf("FT units = %v", fts)
	}
	cars := ix.Elements("car")
	sat, score := m.EvalUnit(fts[0], cars[0])
	if !sat || score <= 0 {
		t.Errorf("car 0: sat=%v score=%v", sat, score)
	}
	sat, score = m.EvalUnit(fts[0], cars[1])
	if sat || score != 0 {
		t.Errorf("car 1: sat=%v score=%v", sat, score)
	}
	if b := m.MaxUnitScore(fts[0]); b < score {
		t.Errorf("bound %v below actual %v", b, score)
	}
}

func TestOptionalUnitsScoreOnly(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "best bid"?]]`)
	m := NewMatcher(ix, q)

	var opt int = -1
	for i, u := range m.Units() {
		if u.Kind == UnitFT && u.Optional {
			opt = i
		}
	}
	if opt == -1 {
		t.Fatal("no optional FT unit")
	}
	cars := ix.Elements("car")
	// car 0 lacks "best bid": unit unsatisfied but never filters.
	if sat, _ := m.EvalUnit(opt, cars[0]); sat {
		t.Errorf("car 0 should not satisfy the optional unit")
	}
	if sat, score := m.EvalUnit(opt, cars[2]); !sat || score <= 0 {
		t.Errorf("car 2: sat=%v score=%v", sat, score)
	}
}

func buildPipeline(ix *index.Index, q *tpq.Query, prof *profile.Profile) (Operator, *Matcher) {
	m := NewMatcher(ix, q)
	var op Operator = &ListScanOp{IDs: ix.Elements(q.Nodes[q.Dist].Tag)}
	op = &RequiredOp{In: op, Matcher: m}
	for _, u := range m.FTUnits() {
		op = &FTOp{In: op, Matcher: m, Unit: u}
	}
	op = &BonusOp{In: op, Matcher: m, Units: m.OptionalBonusUnits()}
	if prof != nil && len(prof.VORs) > 0 {
		op = NewVOROp(op, ix, prof)
	}
	if prof != nil {
		for _, kor := range prof.SortKORsByPriority() {
			op = NewKOROp(op, ix, kor, "")
		}
	}
	return op, m
}

// drain opens op and collects its whole stream, pulling batches of 7 so
// batch boundaries fall inside even the small test inputs.
func drain(op Operator) []Answer {
	op.Open()
	var out []Answer
	buf := make([]Answer, 7)
	for {
		n := op.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestPipelineScoresAndKOR(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"] and price < 2000]`)
	prof := profile.MustParseProfile(`
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor w5: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
`)
	op, _ := buildPipeline(ix, q, prof)
	out := drain(op)
	// Cars 0 and 2 match (good condition + price<2000); car 3 fails price,
	// car 1 lacks the phrase.
	if len(out) != 2 {
		t.Fatalf("got %d answers: %+v", len(out), out)
	}
	byNode := map[xmldoc.NodeID]Answer{}
	for _, a := range out {
		byNode[a.Node] = a
	}
	cars := ix.Elements("car")
	a0, ok0 := byNode[cars[0]]
	a2, ok2 := byNode[cars[2]]
	if !ok0 || !ok2 {
		t.Fatalf("wrong cars matched: %+v", out)
	}
	if a0.S <= 0 || a2.S <= 0 {
		t.Errorf("S scores missing: %+v %+v", a0, a2)
	}
	// K: car 0 has NYC only; car 2 has best bid + NYC.
	if !(a2.K > a0.K) {
		t.Errorf("car 2 should out-K car 0: %v vs %v", a2.K, a0.K)
	}
	if a0.K <= 0 {
		t.Errorf("car 0 contains NYC, K = %v", a0.K)
	}
	// VKeys present.
	if len(a0.VKeys) != 1 || len(a2.VKeys) != 1 {
		t.Errorf("VKeys missing")
	}
}

func TestRankerModes(t *testing.T) {
	prof := profile.MustParseProfile(`
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
`)
	r := &Ranker{Prof: prof}
	doc, _ := xmldoc.ParseString(`<d><car><color>red</color></car><car><color>blue</color></car></d>`)
	cars := doc.ElementsByTag("car")
	red := Answer{Node: cars[0], S: 0.1, K: 0, VKeys: VORKeysFor(doc, prof, cars[0])}
	blue := Answer{Node: cars[1], S: 0.9, K: 0.5, VKeys: VORKeysFor(doc, prof, cars[1])}

	if got := r.Compare(&red, &blue, ModeS); got != -1 {
		t.Errorf("ModeS: %d", got)
	}
	if got := r.Compare(&red, &blue, ModeVS); got != 1 {
		t.Errorf("ModeVS: red preferred, got %d", got)
	}
	if got := r.Compare(&red, &blue, ModeKVS); got != -1 {
		t.Errorf("ModeKVS: K dominates, got %d", got)
	}
	if got := r.Compare(&red, &blue, ModeVKS); got != 1 {
		t.Errorf("ModeVKS: V dominates, got %d", got)
	}
	// Symmetry.
	if r.Compare(&blue, &red, ModeVKS) != -1 {
		t.Errorf("asymmetric comparison")
	}
}

func TestModeForProfile(t *testing.T) {
	if got := ModeForProfile(nil); got != ModeS {
		t.Errorf("nil profile: %v", got)
	}
	vOnly := profile.MustParseProfile(`vor w: x.tag = a & y.tag = a & x.m < y.m => x < y`)
	if got := ModeForProfile(vOnly); got != ModeVS {
		t.Errorf("v-only: %v", got)
	}
	kv := profile.MustParseProfile(`
vor w: x.tag = a & y.tag = a & x.m < y.m => x < y
kor k: x.tag = a & y.tag = a & ftcontains(x, "z") => x < y
`)
	if got := ModeForProfile(kv); got != ModeKVS {
		t.Errorf("kv: %v", got)
	}
	kv.Rank = profile.VKS
	if got := ModeForProfile(kv); got != ModeVKS {
		t.Errorf("vks: %v", got)
	}
}

// srcAnswers builds a synthetic operator from a fixed answer list.
type sliceOp struct {
	answers []Answer
	pos     int
	stats   OpStats
}

func (s *sliceOp) Open()          { s.pos = 0; s.stats = OpStats{Name: "slice"} }
func (s *sliceOp) Stats() OpStats { return s.stats }
func (s *sliceOp) NextBatch(dst []Answer) int {
	n := copy(dst, s.answers[s.pos:])
	s.pos += n
	s.stats.Out += n
	return n
}

func TestTopKPruneAlg1(t *testing.T) {
	r := &Ranker{}
	answers := []Answer{
		{Node: 1, S: 0.5}, {Node: 2, S: 0.9}, {Node: 3, S: 0.1},
		{Node: 4, S: 0.7}, {Node: 5, S: 0.3},
	}
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeS, Ranker: r}
	drain(op)
	top := op.TopK()
	if len(top) != 2 || top[0].S != 0.9 || top[1].S != 0.7 {
		t.Fatalf("top = %+v", top)
	}
	// With SBound = 0, answers 3 and 5 must have been pruned.
	if op.Stats().Pruned != 2 {
		t.Errorf("pruned = %d, want 2 (answers 0.1 and 0.3)", op.Stats().Pruned)
	}
}

func TestTopKPruneSBoundPreventsPruning(t *testing.T) {
	r := &Ranker{}
	answers := []Answer{
		{Node: 1, S: 0.5}, {Node: 2, S: 0.9}, {Node: 3, S: 0.1},
	}
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeS, Ranker: r, SBound: 1.0}
	out := drain(op)
	// 0.1 + 1.0 >= 0.5: nothing can be pruned.
	if len(out) != 3 || op.Stats().Pruned != 0 {
		t.Errorf("out=%d pruned=%d; bound must prevent pruning", len(out), op.Stats().Pruned)
	}
}

func TestTopKPruneBulkOnSorted(t *testing.T) {
	r := &Ranker{}
	answers := []Answer{
		{Node: 1, S: 0.9}, {Node: 2, S: 0.7}, {Node: 3, S: 0.5},
		{Node: 4, S: 0.3}, {Node: 5, S: 0.1},
	}
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeS, Ranker: r, SortedInput: true}
	out := drain(op)
	if len(out) != 2 {
		t.Errorf("sorted input must stop at first prune: emitted %d", len(out))
	}
	if op.Stats().In != 3 {
		t.Errorf("consumed %d, want 3 (two kept + one pruned then stop)", op.Stats().In)
	}
}

func TestTopKPruneAlg3KorBound(t *testing.T) {
	r := &Ranker{}
	answers := []Answer{
		{Node: 1, K: 1.0, S: 0.5},
		{Node: 2, K: 0.9, S: 0.5},
		{Node: 3, K: 0.2, S: 0.5}, // can catch up within bound 1.0
		{Node: 4, K: 0.0, S: 0.5}, // 0.0 + 0.8 < 0.9: pruned for bound 0.8
	}
	// korBound large: nothing pruned.
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeKVS, Ranker: r, KorBound: 1.0}
	out := drain(op)
	if len(out) != 4 {
		t.Errorf("bound 1.0: emitted %d, want 4", len(out))
	}
	// korBound 0.8: answer 4 pruned (0+0.8 < 0.9), answer 3 kept (0.2+0.8 >= 0.9).
	op = &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeKVS, Ranker: r, KorBound: 0.8}
	out = drain(op)
	if len(out) != 3 || op.Stats().Pruned != 1 {
		t.Errorf("bound 0.8: emitted %d pruned %d", len(out), op.Stats().Pruned)
	}
	// korBound 0: K final; answers 3 and 4 pruned.
	op = &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeKVS, Ranker: r}
	out = drain(op)
	if len(out) != 2 || op.Stats().Pruned != 2 {
		t.Errorf("bound 0: emitted %d pruned %d", len(out), op.Stats().Pruned)
	}
}

func TestTopKPruneAlg2VDominance(t *testing.T) {
	prof := profile.MustParseProfile(`
vor w: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
`)
	r := &Ranker{Prof: prof}
	doc, _ := xmldoc.ParseString(
		`<d><car><color>red</color></car><car><color>red</color></car><car><color>blue</color></car></d>`)
	cars := doc.ElementsByTag("car")
	key := func(i int) []profile.Key { return VORKeysFor(doc, prof, cars[i]) }
	answers := []Answer{
		{Node: cars[0], S: 0.9, VKeys: key(0)}, // red
		{Node: cars[1], S: 0.8, VKeys: key(1)}, // red
		{Node: cars[2], S: 1.0, VKeys: key(2)}, // blue: dominated by both reds
	}
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeVS, Ranker: r}
	drain(op)
	top := op.TopK()
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	for _, a := range top {
		if doc.TextContent(doc.ChildByTag(a.Node, "color")) != "red" {
			t.Errorf("user-preferred (red) answers must win despite lower S: %+v", top)
		}
	}
	if op.Stats().Pruned != 1 {
		t.Errorf("blue must be pruned: stats %+v", op.Stats())
	}
}

// TestTopKPreferredNotPrunedDespiteLowScore is the paper's headline
// requirement: "Even if their query score is low, user-preferred answers
// should not be pruned."
func TestTopKPreferredNotPrunedDespiteLowScore(t *testing.T) {
	prof := profile.MustParseProfile(`
vor w: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
`)
	r := &Ranker{Prof: prof}
	b := xmldoc.NewBuilder()
	b.Start("d")
	for i := 0; i < 20; i++ {
		b.Start("car")
		if i == 19 {
			b.Elem("color", "red") // the last, lowest-S car is red
		} else {
			b.Elem("color", "blue")
		}
		b.End()
	}
	b.End()
	doc := b.MustDocument()
	cars := doc.ElementsByTag("car")
	var answers []Answer
	for i, c := range cars {
		answers = append(answers, Answer{
			Node: c, S: 1.0 - float64(i)*0.05, VKeys: VORKeysFor(doc, prof, c),
		})
	}
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 3, Mode: ModeVS, Ranker: r}
	drain(op)
	top := op.TopK()
	if doc.TextContent(doc.ChildByTag(top[0].Node, "color")) != "red" {
		t.Fatalf("the red car must rank first: %+v", top)
	}
}

func TestSortOp(t *testing.T) {
	r := &Ranker{}
	answers := []Answer{{Node: 3, S: 0.5}, {Node: 1, S: 0.9}, {Node: 2, S: 0.9}}
	op := &SortOp{In: &sliceOp{answers: answers}, Ranker: r, Mode: ModeS}
	out := drain(op)
	if len(out) != 3 || out[0].S != 0.9 || out[2].S != 0.5 {
		t.Fatalf("sorted = %+v", out)
	}
	// Deterministic tie-break by NodeID.
	if out[0].Node != 1 || out[1].Node != 2 {
		t.Errorf("tie-break: %+v", out)
	}
}

func TestStatsNames(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	m := NewMatcher(ix, q)
	var op Operator = &ListScanOp{Name: "scan(car)", IDs: ix.Elements("car")}
	op = &FTOp{In: op, Matcher: m, Unit: m.FTUnits()[0]}
	drain(op)
	if name := op.Stats().Name; !strings.Contains(name, "good condition") {
		t.Errorf("stats name = %q", name)
	}
}

func BenchmarkMatchRequired(b *testing.B) {
	ix := dealerIndex(b)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"] and price < 2000]`)
	m := NewMatcher(ix, q)
	cars := ix.Elements("car")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchRequired(cars[i%len(cars)])
	}
}

func ExampleTopKPruneOp() {
	r := &Ranker{}
	answers := []Answer{{Node: 1, S: 0.3}, {Node: 2, S: 0.8}, {Node: 3, S: 0.6}}
	op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: 2, Mode: ModeS, Ranker: r}
	Run(op, 2)
	for _, a := range op.TopK() {
		fmt.Printf("node %d score %.1f\n", a.Node, a.S)
	}
	// Output:
	// node 2 score 0.8
	// node 3 score 0.6
}
