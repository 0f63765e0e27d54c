package tpq

import (
	"strings"
	"testing"
)

func TestParsePaperQuery(t *testing.T) {
	// The running-example query Q from the introduction / Fig. 2.
	q, err := Parse(`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"] and price < 2000]`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Nodes[0].Tag != "car" || q.Nodes[0].Axis != Descendant {
		t.Fatalf("root = %+v", q.Nodes[0])
	}
	if q.Dist != 0 {
		t.Fatalf("distinguished = %d, want 0 (car)", q.Dist)
	}
	descs := q.FindByTag("description")
	if len(descs) != 1 {
		t.Fatalf("description nodes: %v", descs)
	}
	d := q.Nodes[descs[0]]
	if d.Axis != Child || d.Parent != 0 {
		t.Fatalf("description node = %+v", d)
	}
	if len(d.FT) != 2 || d.FT[0].Phrase != "good condition" || d.FT[1].Phrase != "low mileage" {
		t.Fatalf("description FT = %+v", d.FT)
	}
	prices := q.FindByTag("price")
	if len(prices) != 1 {
		t.Fatalf("price nodes: %v", prices)
	}
	pc := q.Nodes[prices[0]].Constraints
	if len(pc) != 1 || pc[0].Op != LT || !pc[0].Val.Equal(NumValue(2000)) {
		t.Fatalf("price constraints = %+v", pc)
	}
}

func TestParseNEXIStyle(t *testing.T) {
	// INEX topic 131 from Section 7.1.
	q, err := Parse(`//article[about(.//au, "Jiawei Han")]//abs[about(., "data mining")]`)
	if err != nil {
		t.Fatal(err)
	}
	if tag := q.Nodes[q.Dist].Tag; tag != "abs" {
		t.Fatalf("distinguished tag = %q, want abs", tag)
	}
	aus := q.FindByTag("au")
	if len(aus) != 1 {
		t.Fatalf("au nodes: %v", aus)
	}
	au := q.Nodes[aus[0]]
	if au.Axis != Descendant {
		t.Fatalf("au axis = %v, want //", au.Axis)
	}
	if len(au.FT) != 1 || au.FT[0].Phrase != "Jiawei Han" {
		t.Fatalf("au FT = %+v", au.FT)
	}
	abs := q.Nodes[q.Dist]
	if len(abs.FT) != 1 || abs.FT[0].Phrase != "data mining" {
		t.Fatalf("abs FT = %+v", abs.FT)
	}
}

func TestParseFig5Query(t *testing.T) {
	// Fig. 5: ad(person, business) & ftcontains(business, "Yes").
	q, err := Parse(`//person(*)[.//business[. ftcontains "Yes"]]`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Nodes[q.Dist].Tag != "person" {
		t.Fatalf("distinguished = %q", q.Nodes[q.Dist].Tag)
	}
	bus := q.FindByTag("business")
	if len(bus) != 1 || q.Nodes[bus[0]].Axis != Descendant {
		t.Fatalf("business node: %+v", q.Nodes[bus[0]])
	}
	if q.Nodes[bus[0]].FT[0].Phrase != "Yes" {
		t.Fatalf("business FT: %+v", q.Nodes[bus[0]].FT)
	}
}

func TestParseDistinguishedMarker(t *testing.T) {
	q := MustParse(`//a(*)//b`)
	if q.Nodes[q.Dist].Tag != "a" {
		t.Fatalf("marker ignored: dist = %q", q.Nodes[q.Dist].Tag)
	}
	q = MustParse(`//a//b`)
	if q.Nodes[q.Dist].Tag != "b" {
		t.Fatalf("default dist = %q, want last step", q.Nodes[q.Dist].Tag)
	}
}

func TestParseRelOps(t *testing.T) {
	cases := []struct {
		src string
		op  RelOp
	}{
		{`//a[x = 5]`, EQ},
		{`//a[x != 5]`, NE},
		{`//a[x <> 5]`, NE}, // the paper's figures use <>
		{`//a[x < 5]`, LT},
		{`//a[x <= 5]`, LE},
		{`//a[x > 5]`, GT},
		{`//a[x >= 5]`, GE},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		xs := q.FindByTag("x")
		if len(xs) != 1 || len(q.Nodes[xs[0]].Constraints) != 1 {
			t.Errorf("%q: constraints misplaced", c.src)
			continue
		}
		if got := q.Nodes[xs[0]].Constraints[0].Op; got != c.op {
			t.Errorf("%q: op = %v, want %v", c.src, got, c.op)
		}
	}
}

func TestParseStringLiteralsAndEscapes(t *testing.T) {
	q := MustParse(`//a[x = "hello \"world\""]`)
	c := q.Nodes[q.FindByTag("x")[0]].Constraints[0]
	if c.Val.Str != `hello "world"` {
		t.Fatalf("escaped string = %q", c.Val.Str)
	}
	q = MustParse(`//a[color = red]`)
	c = q.Nodes[q.FindByTag("color")[0]].Constraints[0]
	if c.Val.Str != "red" || c.Val.IsNum {
		t.Fatalf("bare word literal = %+v", c.Val)
	}
	q = MustParse(`//a[x = 'single']`)
	c = q.Nodes[q.FindByTag("x")[0]].Constraints[0]
	if c.Val.Str != "single" {
		t.Fatalf("single-quoted = %+v", c.Val)
	}
}

func TestParseOptionalMarks(t *testing.T) {
	q := MustParse(`//car[./description[. ftcontains "american"?]]`)
	d := q.Nodes[q.FindByTag("description")[0]]
	if len(d.FT) != 1 || !d.FT[0].Optional || d.FT[0].Weight <= 0 {
		t.Fatalf("optional FT = %+v", d.FT)
	}
	q = MustParse(`//car[price < 2000?]`)
	p := q.Nodes[q.FindByTag("price")[0]]
	if !p.Constraints[0].Optional {
		t.Fatalf("optional constraint = %+v", p.Constraints)
	}
	q = MustParse(`//car[./owner?]`)
	o := q.Nodes[q.FindByTag("owner")[0]]
	if !o.Optional {
		t.Fatalf("optional branch = %+v", o)
	}
}

func TestParseAmpersandConjunction(t *testing.T) {
	q := MustParse(`//a[x = 1 & y = 2 && z = 3]`)
	for _, tag := range []string{"x", "y", "z"} {
		if len(q.FindByTag(tag)) != 1 {
			t.Errorf("missing conjunct %q", tag)
		}
	}
}

func TestParseNestedPaths(t *testing.T) {
	q := MustParse(`//a[./b//c[d > 1] and .//e ftcontains "k"]`)
	cs := q.FindByTag("c")
	if len(cs) != 1 || q.Nodes[cs[0]].Axis != Descendant {
		t.Fatalf("c node: %+v", q.Nodes[cs[0]])
	}
	ds := q.FindByTag("d")
	if len(ds) != 1 || q.Nodes[ds[0]].Parent != cs[0] {
		t.Fatalf("d node: %+v", q.Nodes[ds[0]])
	}
	es := q.FindByTag("e")
	if len(es) != 1 || q.Nodes[es[0]].FT[0].Phrase != "k" {
		t.Fatalf("e node: %+v", q.Nodes[es[0]])
	}
}

func TestParseAbsolutePath(t *testing.T) {
	q := MustParse(`/dealer/car`)
	if q.Nodes[0].Axis != Child {
		t.Fatalf("absolute root axis = %v", q.Nodes[0].Axis)
	}
	if q.Nodes[q.Dist].Tag != "car" || q.Nodes[q.Dist].Axis != Child {
		t.Fatalf("car step: %+v", q.Nodes[q.Dist])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`car`,
		`//`,
		`//a[`,
		`//a]`,
		`//a[x <]`,
		`//a[x ! 5]`,
		`//a[ftcontains(.)]`,
		`//a[ftcontains(., "k"]`,
		`//a["unattached"]`,
		`//a[x = "unterminated]`,
		`//a extra`,
		`//a[. ftcontains]`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	sources := []string{
		`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"] and price < 2000]`,
		`//article[about(.//au, "Jiawei Han")]//abs[about(., "data mining")]`,
		`//person(*)[.//business[. ftcontains "Yes"]]`,
		`/dealer/car[color = "red"]`,
		`//a[x >= 10 and y != "z"]`,
	}
	for _, src := range sources {
		q := MustParse(src)
		q2, err := Parse(q.String())
		if err != nil {
			t.Errorf("re-parse %q (from %q): %v", q.String(), src, err)
			continue
		}
		if !Equivalent(q, q2) {
			t.Errorf("round trip not equivalent:\n  src: %s\n  out: %s", src, q.String())
		}
		if q.Nodes[q.Dist].Tag != q2.Nodes[q2.Dist].Tag {
			t.Errorf("distinguished changed: %q vs %q", q.Nodes[q.Dist].Tag, q2.Nodes[q2.Dist].Tag)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	q := MustParse(`//a/b`)
	q.Dist = 99
	if err := q.Validate(); err == nil {
		t.Errorf("out-of-range Dist accepted")
	}

	q = MustParse(`//a/b`)
	q.Nodes[1].Parent = 1
	if err := q.Validate(); err == nil {
		t.Errorf("self-parent accepted")
	}

	q = MustParse(`//a/b`)
	q.Nodes[1].Parent = -1
	if err := q.Validate(); err == nil {
		t.Errorf("two roots accepted")
	}
}

func TestPhrasesAndPredCount(t *testing.T) {
	q := MustParse(`//a[. ftcontains "x y" and b ftcontains "z" and c > 1]`)
	ph := q.Phrases()
	if strings.Join(ph, ",") != "x y,z" {
		t.Fatalf("Phrases = %v", ph)
	}
	preds := 0
	for _, n := range q.Nodes {
		preds += len(n.Constraints) + len(n.FT)
	}
	if preds != 3 {
		t.Fatalf("predicate count = %d", preds)
	}
}
