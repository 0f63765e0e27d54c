package twig

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// restricted runs Evaluator.Join with the distinguished stream cut to
// the members pick selects (element i of Stream is kept when bit i%5 of
// pick is set) and appended behind a sentinel, and fails unless it
// returns the whole join's answer — held to the oracle by distinguished
// — ∩ the members, leaves the sentinel in place and reads exactly the
// members. It also holds the skipping join to the one that reads every
// element.
func restricted(t testing.TB, ix *index.Index, q *tpq.Query, pick uint8) {
	t.Helper()
	all := distinguished(t, ix, q)
	ev := NewEvaluator(ix, q)
	members := []xmldoc.NodeID{}
	for i, e := range ev.Stream() {
		if pick>>(i%5)&1 != 0 {
			members = append(members, e)
		}
	}
	var want []xmldoc.NodeID
	for _, e := range all {
		if _, ok := slices.BinarySearch(members, e); ok {
			want = append(want, e)
		}
	}
	sentinel := xmldoc.NodeID(-7)
	out, stats, err := ev.Join(context.Background(), members, 0, []xmldoc.NodeID{sentinel})
	if err != nil {
		t.Fatalf("Join on %s: %v", q, err)
	}
	if len(out) == 0 || out[0] != sentinel || !slices.Equal(out[1:], want) {
		t.Fatalf("Join(%v) = %v, want [%d] + %v\nq: %s\ndoc: %s", members, out, sentinel, want, q, ix.Document().XMLString())
	}
	if !stats.GuideShortCircuit && (stats.Emitted != len(want) || stats.Read != len(members)) {
		t.Fatalf("Join(%v) on %s: emitted %d read %d, want %d and %d", members, q, stats.Emitted, stats.Read, len(want), len(members))
	}
	reader := NewEvaluator(ix, q)
	reader.noSkip = true
	for _, m := range [][]xmldoc.NodeID{nil, members} {
		got, skipping, err := ev.Join(context.Background(), m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, reading, err := reader.Join(context.Background(), m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, full) || skipping.StackPushes > reading.StackPushes {
			t.Fatalf("members %v: the skipping join keeps %v (%d pushes), the full one %v (%d)\nq: %s\ndoc: %s",
				m, got, skipping.StackPushes, full, reading.StackPushes, q, ix.Document().XMLString())
		}
	}
}

// TestRestrictedJoinIsOracleSubset: on seeded random documents with
// words and random keyword patterns — distinguished nodes at the root
// and below it, wildcards, child-axis roots — a join over any subset of
// the distinguished stream returns the whole answer ∩ that subset, and
// the join that skips while no root element is open returns what the
// one reading every element returns, with at most its stack pushes.
func TestRestrictedJoinIsOracleSubset(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for iter := 0; iter < 1500; iter++ {
		ix, q := randomDoc(r), randomKeywordQuery(r)
		if r.Intn(4) == 0 {
			q.Nodes[0].Axis = tpq.Child
		}
		restricted(t, ix, q, uint8(r.Intn(32)))
	}
}

// TestRootSkipReadsLess: a root stream cut to one member over long
// descendant streams — a tier of the plan's tiered source — pushes only
// the elements inside that member; the join without the skip pushes
// every b.
func TestRootSkipReadsLess(t *testing.T) {
	ix := buildDoc(t, `<r><a><b><c/></b></a><a><b><c/></b></a><a><b><c/></b></a><a><b><c/></b></a></r>`)
	q := tpq.MustParse(`//a[./b[./c]]`)
	ev, reader := NewEvaluator(ix, q), NewEvaluator(ix, q)
	reader.noSkip = true
	members := ev.Stream()[2:3]
	got, skipping, err := ev.Join(context.Background(), members, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, reading, err := reader.Join(context.Background(), members, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, members) || skipping.StackPushes != 2 || reading.StackPushes != 5 {
		t.Fatalf("candidates %v, pushes %d skipping and %d reading: want %v, 2 and 5", got, skipping.StackPushes, reading.StackPushes, members)
	}
}
