package tpq

import (
	"math/rand"
	"testing"
)

func TestSubsumedByPaperRules(t *testing.T) {
	// Section 5.1: rules p1 and p2 of Fig. 2 are both applicable to Q,
	// i.e. their conditions are subsumed by Q.
	q := MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"] and price < 2000]`)

	condP1 := MustParse(`//car[./description[. ftcontains "low mileage"]]`)
	condP2 := MustParse(`//car[./description[. ftcontains "good condition"]]`)

	if !SubsumedBy(condP1, q) {
		t.Errorf("p1's condition must be subsumed by Q")
	}
	if !SubsumedBy(condP2, q) {
		t.Errorf("p2's condition must be subsumed by Q")
	}

	// After p1 removes ftcontains(car, "good condition"), p2 no longer
	// applies (the conflict from Section 5.1).
	q2 := q.Clone()
	if n := q2.RemoveFT(0, "good condition"); n != 1 {
		t.Fatalf("RemoveFT removed %d preds", n)
	}
	if SubsumedBy(condP2, q2) {
		t.Errorf("p2 must be inapplicable after p1 fires")
	}
	if !SubsumedBy(condP1, q2) {
		t.Errorf("p1 stays applicable")
	}
}

func TestSubsumedByStructure(t *testing.T) {
	q := MustParse(`//a[./b[./c]]`)

	if !SubsumedBy(MustParse(`//a[./b]`), q) {
		t.Errorf("pc-edge present")
	}
	if !SubsumedBy(MustParse(`//a[.//c]`), q) {
		t.Errorf("ad-edge satisfied by pc-path of length 2")
	}
	if !SubsumedBy(MustParse(`//b[./c]`), q) {
		t.Errorf("unanchored condition may start anywhere")
	}
	if SubsumedBy(MustParse(`//a[./c]`), q) {
		t.Errorf("pc-edge must not match grandparent relation")
	}
	if SubsumedBy(MustParse(`//a[./d]`), q) {
		t.Errorf("missing tag")
	}

	// ad in query does not subsume pc condition.
	qAD := MustParse(`//a[.//b]`)
	if SubsumedBy(MustParse(`//a[./b]`), qAD) {
		t.Errorf("//b in query cannot guarantee pc(a,b)")
	}
	if !SubsumedBy(MustParse(`//a[.//b]`), qAD) {
		t.Errorf("ad matches ad")
	}
}

func TestSubsumedByConstraintImplication(t *testing.T) {
	q := MustParse(`//car[price < 2000]`)
	if !SubsumedBy(MustParse(`//car[price < 3000]`), q) {
		t.Errorf("price<2000 implies price<3000")
	}
	if !SubsumedBy(MustParse(`//car[price <= 2000]`), q) {
		t.Errorf("price<2000 implies price<=2000")
	}
	if SubsumedBy(MustParse(`//car[price < 1000]`), q) {
		t.Errorf("price<2000 does not imply price<1000")
	}
	if SubsumedBy(MustParse(`//car[price > 100]`), q) {
		t.Errorf("wrong direction")
	}

	qe := MustParse(`//car[price = 500]`)
	if !SubsumedBy(MustParse(`//car[price < 2000]`), qe) {
		t.Errorf("price=500 implies price<2000")
	}
	if !SubsumedBy(MustParse(`//car[price != 600]`), qe) {
		t.Errorf("price=500 implies price!=600")
	}
	if SubsumedBy(MustParse(`//car[price != 500]`), qe) {
		t.Errorf("price=500 contradicts price!=500")
	}
}

func TestSubsumedByFTImplication(t *testing.T) {
	q := MustParse(`//car[./description[. ftcontains "very good condition"]]`)
	if !SubsumedBy(MustParse(`//car[./description[. ftcontains "good condition"]]`), q) {
		t.Errorf("superset phrase implies sub-phrase")
	}
	if SubsumedBy(MustParse(`//car[./description[. ftcontains "bad condition"]]`), q) {
		t.Errorf("different phrase")
	}
	// FT at a descendant implies FT at the ancestor (any-depth semantics).
	if !SubsumedBy(MustParse(`//car[. ftcontains "good condition"]`), q) {
		t.Errorf("ftcontains(description,k) implies ftcontains(car,k)")
	}
	// But not the other way around.
	q2 := MustParse(`//car[. ftcontains "good condition" and ./description]`)
	if SubsumedBy(MustParse(`//car[./description[. ftcontains "good condition"]]`), q2) {
		t.Errorf("ftcontains(car,k) does not imply ftcontains(description,k)")
	}
}

func TestSubsumedByIgnoresOptional(t *testing.T) {
	q := MustParse(`//car[./description[. ftcontains "american"?]]`)
	if SubsumedBy(MustParse(`//car[./description[. ftcontains "american"]]`), q) {
		t.Errorf("optional predicates must not witness subsumption")
	}
	q2 := MustParse(`//car[./owner?]`)
	if SubsumedBy(MustParse(`//car[./owner]`), q2) {
		t.Errorf("optional branches must not witness subsumption")
	}
}

func TestContainsAnchored(t *testing.T) {
	sub := MustParse(`//car[price < 1000 and ./description[. ftcontains "good condition"]]`)
	super := MustParse(`//car[price < 2000]`)
	if !Contains(super, sub) {
		t.Errorf("more constrained query contained in less constrained")
	}
	if Contains(sub, super) {
		t.Errorf("containment is not symmetric here")
	}
	// Distinguished nodes must correspond.
	a := MustParse(`//car/price`)
	b := MustParse(`//car[./price]`)
	if Contains(a, b) || Contains(b, a) {
		t.Errorf("different distinguished tags cannot be contained")
	}
	// Root axis: absolute vs anywhere.
	abs := MustParse(`/dealer/car`)
	rel := MustParse(`//dealer/car`)
	if !Contains(rel, abs) {
		t.Errorf("absolute query contained in relative one")
	}
	if Contains(abs, rel) {
		t.Errorf("relative query not contained in absolute one")
	}
}

func TestEquivalentReflexive(t *testing.T) {
	for _, src := range []string{
		`//car[price < 2000]`,
		`//article[about(.//au, "X")]//abs`,
		`//a[./b and ./c[d > 1]]`,
	} {
		q := MustParse(src)
		if !Equivalent(q, q.Clone()) {
			t.Errorf("query not equivalent to its clone: %s", src)
		}
	}
}

func TestImpliesConstraintTable(t *testing.T) {
	n := NumValue
	cases := []struct {
		hOp  RelOp
		hVal Value
		wOp  RelOp
		wVal Value
		want bool
	}{
		{EQ, n(5), EQ, n(5), true},
		{EQ, n(5), LT, n(6), true},
		{EQ, n(5), GT, n(4), true},
		{EQ, n(5), NE, n(4), true},
		{EQ, n(5), NE, n(5), false},
		{LT, n(5), LT, n(5), true},
		{LT, n(5), LT, n(6), true},
		{LT, n(5), LE, n(5), true},
		{LT, n(5), LT, n(4), false},
		{LT, n(5), NE, n(5), true},
		{LT, n(5), NE, n(4), false},
		{LE, n(5), LE, n(5), true},
		{LE, n(5), LT, n(5), false},
		{LE, n(5), LT, n(6), true},
		{GT, n(5), GT, n(5), true},
		{GT, n(5), GE, n(5), true},
		{GT, n(5), GT, n(6), false},
		{GE, n(5), GE, n(5), true},
		{GE, n(5), GT, n(5), false},
		{GE, n(5), GT, n(4), true},
		{NE, n(5), NE, n(5), true},
		{NE, n(5), NE, n(6), false},
		{NE, n(5), LT, n(6), false},
		{LT, n(5), GT, n(1), false},
		{EQ, StrValue("red"), EQ, StrValue("red"), true},
		{EQ, StrValue("red"), NE, StrValue("blue"), true},
		{EQ, StrValue("red"), EQ, n(5), false}, // cross-domain
	}
	for _, c := range cases {
		got := ImpliesConstraint(c.hOp, c.hVal, c.wOp, c.wVal)
		if got != c.want {
			t.Errorf("(x %v %v) => (x %v %v): got %v, want %v",
				c.hOp, c.hVal, c.wOp, c.wVal, got, c.want)
		}
	}
}

// TestPropertyImplicationSoundness: whenever ImpliesConstraint says yes,
// every sample satisfying the premise satisfies the conclusion.
func TestPropertyImplicationSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ops := []RelOp{EQ, NE, LT, LE, GT, GE}
	for iter := 0; iter < 5000; iter++ {
		hOp := ops[r.Intn(len(ops))]
		wOp := ops[r.Intn(len(ops))]
		hVal := NumValue(float64(r.Intn(10)))
		wVal := NumValue(float64(r.Intn(10)))
		if !ImpliesConstraint(hOp, hVal, wOp, wVal) {
			continue
		}
		for x := -2.5; x <= 12.5; x += 0.5 {
			cmpH := cmpf(x, hVal.Num)
			cmpW := cmpf(x, wVal.Num)
			if hOp.Eval(cmpH) && !wOp.Eval(cmpW) {
				t.Fatalf("unsound: x=%v satisfies (x %v %v) but not (x %v %v)",
					x, hOp, hVal, wOp, wVal)
			}
		}
	}
}

func cmpf(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func TestImpliesPhrase(t *testing.T) {
	cases := []struct {
		have, want string
		result     bool
	}{
		{"good condition", "good condition", true},
		{"very good condition", "good condition", true},
		{"good condition", "good", true},
		{"good condition", "condition", true},
		{"good condition", "very good condition", false},
		{"good condition", "condition good", false},
		{"Good Condition", "good condition", true}, // case-insensitive
		{"good", "", false},
	}
	for _, c := range cases {
		if got := ImpliesPhrase(c.have, c.want); got != c.result {
			t.Errorf("ImpliesPhrase(%q, %q) = %v, want %v", c.have, c.want, got, c.result)
		}
	}
}

// TestPropertyContainmentReflexiveTransitive on random small queries.
func TestPropertyContainmentReflexiveTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	qs := make([]*Query, 0, 30)
	for i := 0; i < 30; i++ {
		qs = append(qs, randomQuery(r))
	}
	for _, q := range qs {
		if !Contains(q, q) {
			t.Fatalf("containment not reflexive: %s", q)
		}
	}
	for i := 0; i < 200; i++ {
		a, b, c := qs[r.Intn(len(qs))], qs[r.Intn(len(qs))], qs[r.Intn(len(qs))]
		if Contains(a, b) && Contains(b, c) && !Contains(a, c) {
			t.Fatalf("transitivity violated:\na=%s\nb=%s\nc=%s", a, b, c)
		}
	}
}

func randomQuery(r *rand.Rand) *Query {
	tags := []string{"a", "b", "c"}
	q := NewQuery(tags[r.Intn(len(tags))], Descendant)
	n := r.Intn(4)
	cur := 0
	for i := 0; i < n; i++ {
		axis := Child
		if r.Intn(2) == 0 {
			axis = Descendant
		}
		parent := r.Intn(len(q.Nodes))
		id := q.AddChild(parent, tags[r.Intn(len(tags))], axis)
		if r.Intn(3) == 0 {
			q.Nodes[id].Constraints = append(q.Nodes[id].Constraints,
				Constraint{Op: RelOp(r.Intn(6)), Val: NumValue(float64(r.Intn(5)))})
		}
		if r.Intn(3) == 0 {
			phrases := []string{"x", "y", "x y"}
			q.Nodes[id].FT = append(q.Nodes[id].FT,
				FTPred{Phrase: phrases[r.Intn(len(phrases))]})
		}
		cur = id
	}
	_ = cur
	q.Dist = 0
	return q
}

// TestQueryEdits covers the in-place edits scoping rules make (literal
// rewriting and the flock encoding, internal/profile): subtree removal
// with index compaction and its two refusals, predicate removal, demotion
// to optional with a weight, and pc-edge relaxation.
func TestQueryEdits(t *testing.T) {
	q := MustParse(`//car[./description[. ftcontains "good condition"]/note and price < 2000 and ./color]`)
	desc := 1
	if q.Nodes[desc].Tag != "description" {
		t.Fatalf("node 1 = %s in %s", q.Nodes[desc].Tag, q)
	}
	if err := q.RemoveNode(0); err == nil {
		t.Error("removed the pattern root")
	}
	if _, ok := Embedding(MustParse(`//car[./color]`), q); !ok {
		t.Errorf("no embedding of //car[./color] into %s", q)
	}

	if n := q.SetFTOptional(0, "Good Condition", 0.5); n != 1 {
		t.Errorf("SetFTOptional marked %d predicates below the root, want 1", n)
	}
	if f := q.Nodes[desc].FT[0]; !f.Optional || f.Weight != 0.5 {
		t.Errorf("ftcontains after SetFTOptional = %+v", f)
	}
	if n := q.RemoveConstraint(0, "", LT, NumValue(1000)); n != 0 {
		t.Errorf("RemoveConstraint removed %d predicates with another value", n)
	}

	if err := q.RemoveNode(desc); err != nil {
		t.Fatal(err)
	}
	if len(q.Nodes) != 3 || q.Dist != 0 || q.Nodes[1].Parent != 0 || q.Nodes[2].Parent != 0 {
		t.Fatalf("after removing the description subtree: %+v", q.Nodes)
	}
	for _, c := range q.Nodes[0].Children {
		if c >= len(q.Nodes) {
			t.Fatalf("child index %d not compacted: %+v", c, q.Nodes)
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}

	price := -1
	for i, n := range q.Nodes {
		if n.Tag == "price" {
			price = i
		}
	}
	if n := q.SetConstraintOptional(price, "", LT, NumValue(2000), 2); n != 1 || !q.Nodes[price].Constraints[0].Optional {
		t.Errorf("SetConstraintOptional marked %d: %+v", n, q.Nodes[price].Constraints)
	}
	if n := q.RemoveConstraint(0, "", LT, NumValue(2000)); n != 1 || len(q.Nodes[price].Constraints) != 0 {
		t.Errorf("RemoveConstraint removed %d: %+v", n, q.Nodes[price].Constraints)
	}
	q.RelaxEdge(price)
	q.RelaxEdge(0)
	if q.Nodes[price].Axis != Descendant || q.Nodes[0].Axis != Descendant {
		t.Errorf("axes after RelaxEdge: %v, %v", q.Nodes[price].Axis, q.Nodes[0].Axis)
	}

	leaf := MustParse(`//a/b`)
	if err := leaf.RemoveNode(leaf.Dist); err == nil {
		t.Error("removed the distinguished node")
	}
}
