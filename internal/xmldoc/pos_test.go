package xmldoc

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomPosDoc builds a random document through the Builder so the
// positional arrays come from the normal finalization path.
func randomPosDoc(r *rand.Rand) *Document {
	tags := []string{"a", "b", "c", "d"}
	b := NewBuilder()
	var build func(depth, budget int) int
	build = func(depth, budget int) int {
		used := 1
		b.Start(tags[r.Intn(len(tags))])
		if r.Intn(4) == 0 {
			b.Text("t")
		}
		for used < budget && depth < 6 && r.Intn(3) != 0 {
			used += build(depth+1, budget-used)
		}
		b.End()
		return used
	}
	build(0, 2+r.Intn(60))
	return b.MustDocument()
}

// isAncestorByParents is the pointer-chasing reference: a is a proper
// ancestor of n when it is on n's parent chain.
func isAncestorByParents(d *Document, a, n NodeID) bool {
	for p := d.Parent(n); p != InvalidNode; p = d.Parent(p) {
		if p == a {
			return true
		}
	}
	return false
}

// TestPositionsAgreeWithTree: the flat-array Ancestor/ParentOf tests
// must agree with the pointer-chasing reference on every node pair.
func TestPositionsAgreeWithTree(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		d := randomPosDoc(r)
		pos := d.Pos()
		if len(pos.Post) != d.Len() || len(pos.Level) != d.Len() {
			t.Fatalf("positions sized %d/%d for %d nodes",
				len(pos.Post), len(pos.Level), d.Len())
		}
		for a := NodeID(0); int(a) < d.Len(); a++ {
			post, level := int32(a), int32(0)
			for p := d.Parent(a); p != InvalidNode; p = d.Parent(p) {
				level++
			}
			for n := NodeID(0); int(n) < d.Len(); n++ {
				want := isAncestorByParents(d, a, n)
				if want {
					post = max(post, int32(n))
				}
				if got := pos.Ancestor(a, n); got != want {
					t.Fatalf("Ancestor(%d,%d) = %t, tree says %t", a, n, got, want)
				}
				if got, want := pos.ParentOf(a, n), d.Parent(n) == a && a != n; got != want {
					t.Fatalf("ParentOf(%d,%d) = %t, tree says %t", a, n, got, want)
				}
			}
			if pos.Post[a] != post || pos.Level[a] != level {
				t.Fatalf("node %d: pos (%d,%d), tree says (%d,%d)", a, pos.Post[a], pos.Level[a], post, level)
			}
		}
	}
}

// TestPositionsSurviveLoad: a persisted document must come back with its
// positional arrays rebuilt.
func TestPositionsSurviveLoad(t *testing.T) {
	d, err := ParseString(`<a><b><c/></b><d>t</d></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pos, want := ld.Pos(), d.Pos()
	if len(pos.Post) != ld.Len() {
		t.Fatalf("loaded document has %d post entries for %d nodes", len(pos.Post), ld.Len())
	}
	for i := 0; i < ld.Len(); i++ {
		if pos.Post[i] != want.Post[i] || pos.Level[i] != want.Level[i] {
			t.Fatalf("node %d: positions diverge after Load", i)
		}
	}
}
