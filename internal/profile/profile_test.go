package profile

import (
	"strings"
	"testing"

	"repro/internal/tpq"
)

// fig2Profile is the running example of Fig. 2, expressed in the DSL.
const fig2Profile = `
# Scoping rules of Fig. 2
sr p1: if pc(car, description) & ftcontains(description, "low mileage") then remove ftcontains(car, "good condition")
sr p2: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
sr p3: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")

# Ordering rules of Fig. 2
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
vor w3: x.tag = car & y.tag = car & x.make = y.make & x.hp > y.hp => x < y
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor w5: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
rank K,V,S
`

func fig2(t *testing.T) *Profile {
	t.Helper()
	p, err := ParseProfile(fig2Profile)
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	return p
}

const paperQ = `//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"] and price < 2000]`

func TestParseFig2Counts(t *testing.T) {
	p := fig2(t)
	if len(p.SRs) != 3 || len(p.VORs) != 3 || len(p.KORs) != 2 {
		t.Fatalf("counts: %d SRs, %d VORs, %d KORs", len(p.SRs), len(p.VORs), len(p.KORs))
	}
	if p.Rank != KVS {
		t.Errorf("rank = %v", p.Rank)
	}
}

func TestVORFormsDetected(t *testing.T) {
	p := fig2(t)
	w1, w2, w3 := p.VORs[0], p.VORs[1], p.VORs[2]
	if w1.Form != FormEqConst || w1.Attr != "color" || w1.Const.Str != "red" {
		t.Errorf("w1 = %+v", w1)
	}
	if len(w1.LocalX) != 0 || len(w1.LocalY) != 0 {
		t.Errorf("w1 locals should be lifted into the form: %+v", w1)
	}
	if w2.Form != FormAttrCmp || w2.Attr != "mileage" || w2.Op != tpq.LT {
		t.Errorf("w2 = %+v", w2)
	}
	if w3.Form != FormAttrCmp || w3.Attr != "hp" || w3.Op != tpq.GT {
		t.Errorf("w3 = %+v", w3)
	}
	if len(w3.CommonEq) != 1 || w3.CommonEq[0] != "make" {
		t.Errorf("w3 common = %v", w3.CommonEq)
	}
}

func TestKORParsed(t *testing.T) {
	p := fig2(t)
	w4 := p.KORs[0]
	if w4.Tag != "car" || len(w4.Phrases) != 1 || w4.Phrases[0] != "best bid" {
		t.Errorf("w4 = %+v", w4)
	}
	if w4.EffectiveWeight() != 1 {
		t.Errorf("EffectiveWeight = %v", w4.EffectiveWeight())
	}
	multi := MustParseProfile(`kor k priority 1 weight 0.5: x.tag = abs & y.tag = abs & ftcontains(x, "data cube") & ftcontains(x, "association rule") & ftcontains(x, "data mining") => x < y`)
	k := multi.KORs[0]
	if len(k.Phrases) != 3 {
		t.Fatalf("phrases = %v", k.Phrases)
	}
	if k.EffectiveWeight() != 0.5 {
		t.Errorf("EffectiveWeight = %v", k.EffectiveWeight())
	}
	if k.Priority != 1 {
		t.Errorf("priority = %d", k.Priority)
	}
}

func TestSRApplicability(t *testing.T) {
	p := fig2(t)
	q := tpq.MustParse(paperQ)
	for _, sr := range p.SRs {
		if !sr.Applicable(q) {
			t.Errorf("%s should be applicable to Q", sr.Name)
		}
	}
	// A query without "low mileage": p1 and p3's conditions differ.
	q2 := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	if p.SRs[0].Applicable(q2) {
		t.Errorf("p1 needs 'low mileage' in the query")
	}
	if !p.SRs[1].Applicable(q2) {
		t.Errorf("p2 only needs 'good condition'")
	}
}

func TestSRApplyDelete(t *testing.T) {
	p := fig2(t)
	q := tpq.MustParse(paperQ)
	out, ok := p.SRs[0].Apply(q) // p1 removes ftcontains(car, "good condition")
	if !ok {
		t.Fatal("p1 must apply")
	}
	if strings.Contains(out.String(), "good condition") {
		t.Errorf("phrase not removed: %s", out)
	}
	if !strings.Contains(out.String(), "low mileage") {
		t.Errorf("wrong phrase removed: %s", out)
	}
	// Original untouched.
	if !strings.Contains(q.String(), "good condition") {
		t.Errorf("Apply mutated its input")
	}
}

func TestSRApplyAdd(t *testing.T) {
	p := fig2(t)
	q := tpq.MustParse(paperQ)
	out, ok := p.SRs[1].Apply(q) // p2 adds ftcontains(description, "american")
	if !ok {
		t.Fatal("p2 must apply")
	}
	if !strings.Contains(out.String(), "american") {
		t.Errorf("predicate not added: %s", out)
	}
	// Added to the description node, not elsewhere.
	descs := out.FindByTag("description")
	found := false
	for _, d := range descs {
		for _, f := range out.Nodes[d].FT {
			if f.Phrase == "american" && !f.Optional {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("american not attached to description: %s", out)
	}
}

func TestSRConflictSemantics(t *testing.T) {
	// Section 5.1: p1 conflicts with p2 w.r.t. Q — after applying p1,
	// p2 is no longer applicable.
	p := fig2(t)
	q := tpq.MustParse(paperQ)
	q1, ok := p.SRs[0].Apply(q)
	if !ok {
		t.Fatal("p1 applies")
	}
	if p.SRs[1].Applicable(q1) {
		t.Errorf("p2 must be inapplicable after p1")
	}
	// But p2 then p1 works: both apply.
	q2, ok := p.SRs[1].Apply(q)
	if !ok {
		t.Fatal("p2 applies")
	}
	if !p.SRs[0].Applicable(q2) {
		t.Errorf("p1 must stay applicable after p2")
	}
	q21, ok := p.SRs[0].Apply(q2)
	if !ok {
		t.Fatal("p1 applies after p2")
	}
	// Different orders yield different queries (the paper's point).
	if tpq.Equivalent(q1, q21) {
		t.Errorf("p1(Q) and p1(p2(Q)) should differ:\n%s\n%s", q1, q21)
	}
}

func TestSRReplace(t *testing.T) {
	p := MustParseProfile(`sr r: if pc(car, description) & ftcontains(description, "good condition") then replace ftcontains(description, "low mileage") with ftcontains(description, "mileage")`)
	q := tpq.MustParse(paperQ)
	out, ok := p.SRs[0].Apply(q)
	if !ok {
		t.Fatal("replace rule must apply")
	}
	s := out.String()
	if strings.Contains(s, "low mileage") {
		t.Errorf("old predicate kept: %s", s)
	}
	if !strings.Contains(s, `"mileage"`) {
		t.Errorf("new predicate missing: %s", s)
	}
}

func TestSREncodeOptional(t *testing.T) {
	p := fig2(t)
	q := tpq.MustParse(paperQ)

	// p2 (add): "american" appears as an optional scored predicate.
	out, ok := p.SRs[1].EncodeOptional(q)
	if !ok {
		t.Fatal("p2 encodes")
	}
	foundOpt := false
	for _, n := range out.Nodes {
		for _, f := range n.FT {
			if f.Phrase == "american" {
				if !f.Optional || f.Weight <= 0 {
					t.Errorf("american must be optional with weight: %+v", f)
				}
				foundOpt = true
			}
		}
	}
	if !foundOpt {
		t.Fatalf("american not added: %s", out)
	}

	// p3 (delete): "low mileage" is demoted to optional, not removed.
	out3, ok := p.SRs[2].EncodeOptional(q)
	if !ok {
		t.Fatal("p3 encodes")
	}
	stillThere := false
	for _, n := range out3.Nodes {
		for _, f := range n.FT {
			if f.Phrase == "low mileage" {
				stillThere = true
				if !f.Optional {
					t.Errorf("low mileage must become optional: %+v", f)
				}
			}
		}
	}
	if !stillThere {
		t.Errorf("delete-encoding must keep the predicate: %s", out3)
	}
}

func TestSRAddStructural(t *testing.T) {
	p := MustParseProfile(`sr s: if pc(car, price) then add pc(car, location) & ftcontains(location, "NYC")`)
	q := tpq.MustParse(`//car[price < 2000]`)
	out, ok := p.SRs[0].Apply(q)
	if !ok {
		t.Fatal("rule must apply")
	}
	locs := out.FindByTag("location")
	if len(locs) != 1 {
		t.Fatalf("location node not added: %s", out)
	}
	n := out.Nodes[locs[0]]
	if n.Axis != tpq.Child || len(n.FT) != 1 || n.FT[0].Phrase != "NYC" {
		t.Errorf("location node = %+v", n)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVORCompare(t *testing.T) {
	p := fig2(t)
	w1 := p.VORs[0] // red preferred

	redCar := map[string]string{"color": "red", "mileage": "50000"}
	blueCar := map[string]string{"color": "blue", "mileage": "10000"}
	noColor := map[string]string{"mileage": "10000"}

	lk := func(m map[string]string) func(string) (string, bool) {
		return func(a string) (string, bool) { v, ok := m[a]; return v, ok }
	}
	kr := w1.KeyFor("car", lk(redCar))
	kb := w1.KeyFor("car", lk(blueCar))
	kn := w1.KeyFor("car", lk(noColor))

	if got := w1.Compare(&kr, &kb); got != 1 {
		t.Errorf("red vs blue = %d, want 1", got)
	}
	if got := w1.Compare(&kb, &kr); got != -1 {
		t.Errorf("blue vs red = %d, want -1", got)
	}
	if got := w1.Compare(&kr, &kr); got != 0 {
		t.Errorf("red vs red = %d, want 0", got)
	}
	if got := w1.Compare(&kb, &kn); got != 0 {
		t.Errorf("blue vs missing-color = %d, want 0 (missing attr cannot satisfy y.color != red? it has no value)", got)
	}

	// Wrong tag: rule silent.
	ko := w1.KeyFor("truck", lk(redCar))
	if got := w1.Compare(&ko, &kb); got != 0 {
		t.Errorf("wrong tag = %d, want 0", got)
	}

	// w2: lower mileage preferred.
	w2 := p.VORs[1]
	k2r := w2.KeyFor("car", lk(redCar))
	k2b := w2.KeyFor("car", lk(blueCar))
	if got := w2.Compare(&k2b, &k2r); got != 1 {
		t.Errorf("lower mileage preferred: got %d", got)
	}

	// w3: same make, higher hp preferred; different makes incomparable.
	w3 := p.VORs[2]
	honda1 := lk(map[string]string{"make": "honda", "hp": "200"})
	honda2 := lk(map[string]string{"make": "honda", "hp": "150"})
	ford := lk(map[string]string{"make": "ford", "hp": "300"})
	kh1, kh2, kf := w3.KeyFor("car", honda1), w3.KeyFor("car", honda2), w3.KeyFor("car", ford)
	if got := w3.Compare(&kh1, &kh2); got != 1 {
		t.Errorf("same make, higher hp: got %d", got)
	}
	if got := w3.Compare(&kh1, &kf); got != 0 {
		t.Errorf("different makes must be incomparable: got %d", got)
	}
}

func TestVORPrefRel(t *testing.T) {
	p := MustParseProfile(`
order colors: red > blue > green
vor w: x.tag = car & y.tag = car & colors(x.color, y.color) => x < y
`)
	w := p.VORs[0]
	if w.Form != FormPrefRel || w.Order == nil {
		t.Fatalf("w = %+v", w)
	}
	lk := func(c string) func(string) (string, bool) {
		return func(a string) (string, bool) {
			if a == "color" {
				return c, true
			}
			return "", false
		}
	}
	red, blue, green, pink := w.KeyFor("car", lk("red")), w.KeyFor("car", lk("blue")),
		w.KeyFor("car", lk("green")), w.KeyFor("car", lk("pink"))
	if w.Compare(&red, &blue) != 1 || w.Compare(&blue, &green) != 1 || w.Compare(&red, &green) != 1 {
		t.Errorf("chain preferences broken")
	}
	if w.Compare(&red, &pink) != 0 {
		t.Errorf("unknown value must be incomparable")
	}
}

func TestProfileCompareVORsPriority(t *testing.T) {
	// Section 5.2's resolution: priority 1 to w2 (mileage), 2 to w1
	// (color). A red high-mileage car vs a blue low-mileage car is then
	// decided by mileage.
	p := MustParseProfile(`
vor w1 priority 2: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`)
	lk := func(m map[string]string) func(string) (string, bool) {
		return func(a string) (string, bool) { v, ok := m[a]; return v, ok }
	}
	redHigh := map[string]string{"color": "red", "mileage": "90000"}
	blueLow := map[string]string{"color": "blue", "mileage": "10000"}
	keysFor := func(m map[string]string) []Key {
		ks := make([]Key, len(p.VORs))
		for i, v := range p.VORs {
			ks[i] = v.KeyFor("car", lk(m))
		}
		return ks
	}
	a, b := keysFor(redHigh), keysFor(blueLow)
	if got := p.CompareVORs(a, b); got != -1 {
		t.Errorf("mileage (priority 1) must win: got %d", got)
	}
	// Equal mileage: color decides.
	redSame := map[string]string{"color": "red", "mileage": "10000"}
	a2 := keysFor(redSame)
	if got := p.CompareVORs(a2, b); got != 1 {
		t.Errorf("tie on mileage falls through to color: got %d", got)
	}
}

func TestPartialOrder(t *testing.T) {
	po := NewPartialOrder("colors")
	if err := po.Add("red", "blue"); err != nil {
		t.Fatal(err)
	}
	if err := po.Add("blue", "green"); err != nil {
		t.Fatal(err)
	}
	if !po.Prefers("red", "green") {
		t.Errorf("transitivity")
	}
	if po.Prefers("green", "red") || po.Prefers("red", "red") {
		t.Errorf("strictness")
	}
	if err := po.Add("green", "red"); err == nil {
		t.Errorf("cycle must be rejected")
	}
	if err := po.Add("x", "x"); err == nil {
		t.Errorf("self-loop must be rejected")
	}
	if po.Level("red") >= po.Level("blue") || po.Level("blue") >= po.Level("green") {
		t.Errorf("levels must respect the order: red=%d blue=%d green=%d",
			po.Level("red"), po.Level("blue"), po.Level("green"))
	}
	if po.Prefers("red", "purple") || po.Prefers("purple", "red") {
		t.Errorf("unknown value comparable")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`vor w: x.tag = car => x < y`,                                      // no y tag, no form
		`vor w: x.tag = car & y.tag = car => x < y`,                        // no ordering atom
		`vor w: x.tag = car & y.tag = truck & x.a < y.a => x < y`,          // tag mismatch
		`vor w: x.tag = car & y.tag = car & x.a != y.a => x < y`,           // != cross atom
		`vor w: x.tag = car & y.tag = car & x.a < y.b => x < y`,            // attr mismatch
		`vor w: x.tag = car & y.tag = car & unknownrel(x.a, y.a) => x < y`, // unknown order
		`kor k: x.tag = car & y.tag = car => x < y`,                        // no ftcontains
		`kor k: x.tag = car & y.tag = car & ftcontains(y, "z") => x < y`,   // ft on wrong var
		`sr s: if then add ftcontains(a, "x")`,                             // empty condition
		`sr s: pc(a,b) then add ftcontains(a, "x")`,                        // missing if
		`sr s: if pc(a,b) then frobnicate ftcontains(a, "x")`,              // bad action
		`sr s: if pc(a,b) & pc(c,d) then add ftcontains(a, "x")`,           // disconnected
		`sr s: if pc(a,b) & pc(b,a) then add ftcontains(a, "x")`,           // cyclic
		`order o red > blue`,                                               // missing ':'
		`order o: red`,                                                     // no chain
		`rank S,V,K`,                                                       // unknown order
		`zzz something`,                                                    // unknown decl
		`vor : x.tag = car => x < y`,                                       // missing name
	}
	for _, src := range bad {
		if _, err := ParseProfile(src); err == nil {
			t.Errorf("ParseProfile(%q) should fail", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	p, err := ParseProfile(`
# full line comment
rank V,K,S  # trailing comment

`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rank != VKS {
		t.Errorf("rank = %v", p.Rank)
	}
}

func TestSRStringRoundTrip(t *testing.T) {
	p := fig2(t)
	for _, sr := range p.SRs {
		s := sr.String()
		for _, frag := range []string{"if", "then", sr.Name} {
			if !strings.Contains(s, frag) {
				t.Errorf("SR string %q missing %q", s, frag)
			}
		}
	}
	for _, v := range p.VORs {
		if !strings.Contains(v.String(), "=> x < y") {
			t.Errorf("VOR string %q", v.String())
		}
	}
}
