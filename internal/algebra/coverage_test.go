package algebra

import (
	"testing"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

func TestListScanAndUnitFilter(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[price < 2000]`)
	m := NewMatcher(ix, q)
	cars := ix.Elements("car")

	scan := &ListScanOp{IDs: cars}
	filter := &UnitFilterOp{In: scan, Matcher: m, Units: m.RequiredConstraintUnits()}
	got := drain(filter)
	if len(got) != 3 { // the 5000-priced car fails
		t.Fatalf("filtered = %d", len(got))
	}
	if scan.Stats().Out != 4 || filter.Stats().Pruned != 1 {
		t.Errorf("stats: scan %+v filter %+v", scan.Stats(), filter.Stats())
	}
	if scan.Stats().Name != "listscan" {
		t.Errorf("default name = %q", scan.Stats().Name)
	}
	named := &ListScanOp{Name: "twigscan(car)", IDs: nil}
	named.Open()
	if named.Stats().Name != "twigscan(car)" {
		t.Errorf("named = %q", named.Stats().Name)
	}
	if n := named.NextBatch(make([]Answer, 4)); n != 0 {
		t.Errorf("empty list scan must end immediately")
	}
}

func TestOperatorStatsAccessors(t *testing.T) {
	ix := dealerIndex(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "best bid"?]]`)
	prof := profile.MustParseProfile(`
vor w: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor k: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
`)
	m := NewMatcher(ix, q)
	var ops []Operator
	var op Operator = &ListScanOp{Name: "scan(car)", IDs: ix.Elements("car")}
	ops = append(ops, op)
	op = &RequiredOp{In: op, Matcher: m}
	ops = append(ops, op)
	for _, u := range m.FTUnits() {
		op = &FTOp{In: op, Matcher: m, Unit: u}
		ops = append(ops, op)
	}
	bonus := &BonusOp{In: op, Matcher: m, Units: m.OptionalBonusUnits()}
	op = bonus
	ops = append(ops, op)
	op = NewVOROp(op, ix, prof)
	ops = append(ops, op)
	op = NewKOROp(op, ix, prof.KORs[0], "")
	ops = append(ops, op)
	sortOp := &SortOp{In: op, Ranker: &Ranker{Prof: prof}, Mode: ModeKVS}
	op = sortOp
	ops = append(ops, op)
	prune := &TopKPruneOp{In: op, K: 2, Mode: ModeKVS, Ranker: &Ranker{Prof: prof}, SortedInput: true}
	ops = append(ops, prune)

	drain(prune)
	for _, o := range ops {
		s := o.Stats()
		if s.Name == "" {
			t.Errorf("operator %T has empty stats name", o)
		}
	}
	if len(prune.TopK()) == 0 {
		t.Errorf("no top-k")
	}
}

func TestMaxKORContributionTightBound(t *testing.T) {
	ix := dealerIndex(t)
	kor := &profile.KOR{Name: "k", Tag: "car", Phrases: []string{"best bid", "NYC"}}
	bound := MaxKORScore(ix, kor)
	if bound <= 0 || bound > 2 {
		t.Fatalf("bound = %v", bound)
	}
	// The bound dominates every actual contribution.
	for _, c := range ix.Elements("car") {
		if got := KORContribution(ix, kor, c); got > bound+1e-12 {
			t.Errorf("contribution %v exceeds bound %v", got, bound)
		}
	}
	// Weighted rule scales the bound.
	w := &profile.KOR{Name: "k", Tag: "car", Phrases: []string{"best bid"}, Weight: 3}
	if b1, b3 := MaxKORScore(ix, kor), MaxKORScore(ix, w); b3 <= b1/2 {
		t.Errorf("weight must scale the bound: %v vs %v", b1, b3)
	}
}

func TestMatcherUpwardAbsoluteRoot(t *testing.T) {
	doc, _ := xmldoc.ParseString(`<a><a><b/></a></a>`)
	ix := index.Build(doc, text.Pipeline{})
	// /a/a/b: only the b whose grandparent is the document root.
	q := tpq.MustParse(`/a/a/b`)
	m := NewMatcher(ix, q)
	bs := ix.Elements("b")
	if len(bs) != 1 || !m.MatchRequired(bs[0]) {
		t.Fatalf("b should match /a/a/b")
	}
	// /a/b: b's parent chain is a/a, so the absolute two-step fails.
	q2 := tpq.MustParse(`/a/b`)
	m2 := NewMatcher(ix, q2)
	if m2.MatchRequired(bs[0]) {
		t.Errorf("b must not match /a/b (parent a is not the root)")
	}
}

func TestVORKeysForNilProfile(t *testing.T) {
	doc, _ := xmldoc.ParseString(`<a><b/></a>`)
	if got := VORKeysFor(doc, nil, doc.Root()); got != nil {
		t.Errorf("nil profile keys = %v", got)
	}
	empty := profile.NewProfile()
	if got := VORKeysFor(doc, empty, doc.Root()); got != nil {
		t.Errorf("empty profile keys = %v", got)
	}
}
