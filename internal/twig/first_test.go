package twig

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/tpq"
)

// first runs Evaluator.Join(ctx, nil, k, nil) and fails unless it returns the
// first k candidates of the join that distinguished checks against the
// oracle (all of them for k <= 0) and its counters account for exactly
// that prefix: Emitted is what it returned, Read the distinguished tag's
// elements up to and including the last one when the answer was cut at
// k, the whole list otherwise.
func first(t testing.TB, ix *index.Index, q *tpq.Query, k int) {
	t.Helper()
	want := distinguished(t, ix, q)
	if k > 0 && k < len(want) {
		want = want[:k]
	}
	got, stats, err := NewEvaluator(ix, q).Join(context.Background(), nil, k, nil)
	if err != nil {
		t.Fatalf("Join limit %d on %s: %v", k, q, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Join limit %d = %v, oracle prefix %v\nq: %s\ndoc: %s", k, got, want, q, ix.Document().XMLString())
	}
	stream := ix.Elements(q.Nodes[q.Dist].Tag)
	wantRead := len(stream)
	switch {
	case stats.GuideShortCircuit:
		wantRead = 0
	case k > 0 && len(got) == k:
		wantRead = slices.Index(stream, got[k-1]) + 1
	}
	if stats.Emitted != len(got) || stats.Read != wantRead {
		t.Fatalf("Join limit %d on %s: emitted %d read %d, want %d and %d", k, q, stats.Emitted, stats.Read, len(got), wantRead)
	}
}

// TestFirstStopsOnlyWhenDecided covers the shapes the early stop has to
// get right, each at every k up to past the last match:
//   - nested same-tag roots: an inner root pops (and survives) while the
//     outer one is still open and undecided, so the stop must wait for
//     the root's stack to empty, or a limit of 1 returns the inner element;
//   - a wildcard root, streamed beside its own children's tags;
//   - a child-axis (absolute) root;
//   - a distinguished node below the root, where pass 2 stops instead.
func TestFirstStopsOnlyWhenDecided(t *testing.T) {
	ix := buildDoc(t, `<r><a><a><b/></a><b/></a><c/><a><c/><a><b/></a></a><a><b/></a></r>`)
	below := tpq.NewQuery("a", tpq.Descendant)
	below.Dist = below.AddChild(0, "b", tpq.Child)
	for _, c := range []struct {
		name string
		q    *tpq.Query
		want int // candidates of the whole join
	}{
		{"nested roots", tpq.MustParse(`//a[./b]`), 4},
		{"wildcard root", tpq.MustParse(`//*[./b]`), 4},
		{"child-axis root", tpq.MustParse(`/r[.//b]`), 1},
		{"dist below the root", below, 4},
	} {
		if n := len(oracleDistinguished(ix, c.q)); n != c.want {
			t.Fatalf("%s: the oracle finds %d candidates, the case expects %d", c.name, n, c.want)
		}
		for k := 0; k <= c.want+1; k++ {
			first(t, ix, c.q, k)
		}
	}
	// The stop itself: a limit of 1 on nested roots decides the outer a and
	// reads no further than it needs to.
	_, stats, err := NewEvaluator(ix, tpq.MustParse(`//a[./b]`)).Join(context.Background(), nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Read != 1 || stats.StackPushes >= len(ix.Elements("a")) {
		t.Fatalf("First(1) stats %+v: want the first a decided without pushing every a", stats)
	}
}

// TestFirstIsOraclePrefix: on random documents and structural patterns,
// a quarter of them rooted at the document root (child axis), a join limited to k
// is the oracle's first k candidates for k in {1, 2, 3, 5} and for k
// past the last match.
func TestFirstIsOraclePrefix(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for iter := 0; iter < 600; iter++ {
		ix := randomDoc(r)
		q := randomStructuralQuery(r)
		if r.Intn(4) == 0 {
			q.Nodes[0].Axis = tpq.Child
		}
		all := len(oracleDistinguished(ix, q))
		for _, k := range []int{1, 2, 3, 5, all + 1} {
			first(t, ix, q, k)
		}
	}
}
