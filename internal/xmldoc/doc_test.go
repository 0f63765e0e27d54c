package xmldoc

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

const carXML = `
<dealer>
  <car vin="A1">
    <description>I am selling my 2001 car at the best bid. It is in good condition.</description>
    <date>2001</date>
    <price>500</price>
    <horsepower>150</horsepower>
    <owner>John Smith</owner>
    <color>red</color>
  </car>
  <car vin="B2">
    <description>Powerful car. Low mileage. Bought on 11/2005. Eager seller.</description>
    <horsepower>200</horsepower>
    <mileage>50000</mileage>
    <price>500</price>
    <location>NYC</location>
    <color>blue</color>
  </car>
</dealer>`

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestParseBasic(t *testing.T) {
	d := mustParse(t, carXML)
	root := d.Root()
	if got := d.Tag(root); got != "dealer" {
		t.Fatalf("root tag = %q, want dealer", got)
	}
	cars := d.ElementsByTag("car")
	if len(cars) != 2 {
		t.Fatalf("got %d cars, want 2", len(cars))
	}
	if d.Parent(cars[0]) != root {
		t.Errorf("car parent is not root")
	}
}

func TestAttrValue(t *testing.T) {
	d := mustParse(t, carXML)
	cars := d.ElementsByTag("car")

	// XML attribute.
	if v, ok := d.AttrValue(cars[0], "vin"); !ok || v != "A1" {
		t.Errorf("vin = %q,%v; want A1,true", v, ok)
	}
	// Child-element value.
	if v, ok := d.AttrValue(cars[0], "color"); !ok || v != "red" {
		t.Errorf("color = %q,%v; want red,true", v, ok)
	}
	// Missing.
	if _, ok := d.AttrValue(cars[0], "mileage"); ok {
		t.Errorf("mileage should be missing on first car")
	}
	// Numeric, as a constraint predicate reads it.
	numeric := func(id NodeID, attr string) (float64, bool) {
		s, ok := d.AttrValue(id, attr)
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		return v, ok && err == nil
	}
	if v, ok := numeric(cars[1], "mileage"); !ok || v != 50000 {
		t.Errorf("mileage = %v,%v; want 50000,true", v, ok)
	}
	if _, ok := numeric(cars[0], "owner"); ok {
		t.Errorf("owner should not parse as numeric")
	}
}

func TestTextContent(t *testing.T) {
	d := mustParse(t, carXML)
	cars := d.ElementsByTag("car")
	txt := d.TextContent(cars[1])
	for _, want := range []string{"Low mileage", "NYC", "50000"} {
		if !strings.Contains(txt, want) {
			t.Errorf("TextContent missing %q in %q", want, txt)
		}
	}
}

// TestTextContentRows pins TextContent's output shape by shape: a leaf
// holding one text node is that node's string (returned without a
// copy), several text nodes — direct or nested — are joined by single
// spaces in document order, and an element without text is empty.
func TestTextContentRows(t *testing.T) {
	b := NewBuilder()
	b.Start("r")
	b.Elem("single", "33")
	b.Start("multi")
	b.Text("one")
	b.Elem("in", "two")
	b.Text("three")
	b.End()
	b.Start("nested")
	b.Start("deep")
	b.Elem("leaf", "only")
	b.End()
	b.End()
	b.Start("empty")
	b.End()
	b.Elem("blank", "")
	b.End()
	d := b.MustDocument()
	first := func(tag string) NodeID { return d.ElementsByTag(tag)[0] }
	for _, row := range []struct{ tag, want string }{
		{"single", "33"},
		{"multi", "one two three"},
		{"in", "two"},
		{"nested", "only"},
		{"empty", ""},
		{"blank", ""},
		{"r", "33 one two three only"},
	} {
		if got := d.TextContent(first(row.tag)); got != row.want {
			t.Errorf("TextContent(<%s>) = %q, want %q", row.tag, got, row.want)
		}
	}
	single := first("single")
	if n := testing.AllocsPerRun(100, func() { _ = d.TextContent(single) }); n != 0 {
		t.Errorf("TextContent of a single-text-node leaf allocates %v times, want 0", n)
	}
}

func TestStructuralPredicates(t *testing.T) {
	d := mustParse(t, carXML)
	root := d.Root()
	cars := d.ElementsByTag("car")
	descs := d.ElementsByTag("description")
	pos := d.Pos()

	if !pos.ParentOf(root, cars[0]) {
		t.Errorf("dealer should be parent of car")
	}
	if !pos.Ancestor(root, descs[0]) {
		t.Errorf("dealer should be ancestor of description")
	}
	if pos.ParentOf(root, descs[0]) {
		t.Errorf("dealer is not parent of description")
	}
	if pos.Ancestor(cars[0], cars[1]) || pos.Ancestor(cars[1], cars[0]) {
		t.Errorf("sibling cars must not be ancestors of each other")
	}
	if pos.Ancestor(cars[0], cars[0]) || pos.ParentOf(cars[0], cars[0]) {
		t.Errorf("Ancestor and ParentOf must be irreflexive")
	}
}

func TestChildLookups(t *testing.T) {
	d := mustParse(t, carXML)
	cars := d.ElementsByTag("car")
	if c := d.ChildByTag(cars[0], "price"); c == InvalidNode {
		t.Fatalf("price child not found")
	} else if d.TextContent(c) != "500" {
		t.Errorf("price = %q", d.TextContent(c))
	}
	if c := d.ChildByTag(cars[0], "nope"); c != InvalidNode {
		t.Errorf("found nonexistent child %v", c)
	}
	kids := 0
	for c := d.FirstChild(cars[1]); c != InvalidNode; c = d.NextSibling(c) {
		if d.Kind(c) == Element {
			kids++
		}
	}
	if kids != 6 {
		t.Errorf("second car has %d element children, want 6", kids)
	}
}

func TestPath(t *testing.T) {
	d := mustParse(t, carXML)
	descs := d.ElementsByTag("description")
	if p := d.Path(descs[0]); p != "/dealer/car/description" {
		t.Errorf("Path = %q", p)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Start("a")
	if _, err := b.Document(); err == nil {
		t.Errorf("unclosed element must error")
	}

	b = NewBuilder()
	if _, err := b.Document(); err == nil {
		t.Errorf("empty document must error")
	}

	b = NewBuilder()
	b.Start("a")
	b.End()
	b.Start("b")
	b.End()
	if _, err := b.Document(); err == nil {
		t.Errorf("multiple roots must error")
	}

	b = NewBuilder()
	b.End()
	if _, err := b.Document(); err == nil {
		t.Errorf("End without Start must error")
	}

	b = NewBuilder()
	b.Text("floating")
	if _, err := b.Document(); err == nil {
		t.Errorf("text outside element must error")
	}

	b = NewBuilder()
	b.Start("")
	if _, err := b.Document(); err == nil {
		t.Errorf("empty tag must error")
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	d := mustParse(t, carXML)
	var visited []string
	d.Walk(func(id NodeID) bool {
		if d.Kind(id) == Element {
			visited = append(visited, d.Tag(id))
			return d.Tag(id) != "car" // do not descend into cars
		}
		return true
	})
	for _, tag := range visited {
		if tag == "price" || tag == "description" {
			t.Fatalf("walked into skipped subtree: %v", visited)
		}
	}
	if len(visited) != 3 { // dealer + 2 cars
		t.Errorf("visited = %v", visited)
	}
}

func TestParseMalformed(t *testing.T) {
	for _, bad := range []string{
		"<a><b></a></b>",
		"<a>",
		"no xml at all",
		"",
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) should fail", bad)
		}
	}
}

func TestEscaping(t *testing.T) {
	src := `<a><b>x &lt; y &amp; z</b></a>`
	d := mustParse(t, src)
	b := d.ElementsByTag("b")[0]
	if got := d.TextContent(b); got != "x < y & z" {
		t.Errorf("TextContent = %q", got)
	}
	out := d.XMLString()
	d2 := mustParse(t, out)
	if got := d2.TextContent(d2.ElementsByTag("b")[0]); got != "x < y & z" {
		t.Errorf("round trip = %q", got)
	}
}

// randomTree builds a random document and returns it; used by property
// tests below.
func randomTree(r *rand.Rand, maxNodes int) *Document {
	tags := []string{"a", "b", "c", "d", "e"}
	b := NewBuilder()
	var build func(depth, budget int) int
	build = func(depth, budget int) int {
		used := 1
		b.Start(tags[r.Intn(len(tags))])
		if r.Intn(2) == 0 {
			b.Text("t" + tags[r.Intn(len(tags))])
			used++
		}
		for used < budget && depth < 6 && r.Intn(3) != 0 {
			used += build(depth+1, budget-used)
		}
		b.End()
		return used
	}
	build(0, maxNodes)
	return b.MustDocument()
}

// TestPropertyRegionEncodingAgreesWithParentWalk checks, on random trees,
// that Positions.Ancestor (region encoding) agrees with walking parent
// pointers.
func TestPropertyRegionEncodingAgreesWithParentWalk(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		d := randomTree(r, 2+r.Intn(40))
		n := d.Len()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a, dn := NodeID(i), NodeID(j)
				walk := isAncestorByParents(d, a, dn)
				if got := d.Pos().Ancestor(a, dn); got != walk {
					t.Fatalf("Ancestor(%d,%d)=%v, parent walk says %v\n%s",
						a, dn, got, walk, d.XMLString())
				}
			}
		}
	}
}

// TestPropertyRoundTrip checks parse(serialize(doc)) preserves structure.
func TestPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		d := randomTree(r, 2+r.Intn(50))
		d2, err := ParseString(d.XMLString())
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if d.Len() != d2.Len() {
			t.Fatalf("node count changed: %d -> %d\n%s", d.Len(), d2.Len(), d.XMLString())
		}
		a, b := d.records(), d2.records()
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Tag != b[i].Tag || a[i].Text != b[i].Text ||
				a[i].Parent != b[i].Parent || a[i].Level != b[i].Level {
				t.Fatalf("node %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

// TestQuickLevelMonotone: along any parent chain levels strictly decrease
// to 0 at the root, and preorder positions (NodeIDs) strictly decrease.
func TestQuickLevelMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		d := randomTree(rand.New(rand.NewSource(seed^r.Int63())), 30)
		for i := 0; i < d.Len(); i++ {
			id := NodeID(i)
			p := d.Parent(id)
			if p == InvalidNode {
				if d.Level(id) != 0 {
					return false
				}
				continue
			}
			if d.Level(id) != d.Level(p)+1 {
				return false
			}
			if p >= id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
