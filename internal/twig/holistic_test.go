package twig

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// TestEvaluatorAgreesWithDistinguished: the fused join must reproduce
// the two-sweep oracle's per-predicate semijoin semantics element for
// element on random documents and patterns.
func TestEvaluatorAgreesWithDistinguished(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 1500; iter++ {
		ix := randomDoc(r)
		distinguished(t, ix, randomStructuralQuery(r))
	}
}

// wideQuery builds //a with n required b children (n required leaves).
func wideQuery(n int) *tpq.Query {
	q := tpq.NewQuery("a", tpq.Descendant)
	for i := 0; i < n; i++ {
		q.AddChild(0, "b", tpq.Child)
	}
	return q
}

// TestCovers: the fused join takes 1..maskLeaves required leaves and a
// required distinguished node; an Evaluator built for anything else
// reports an error instead of an answer.
func TestCovers(t *testing.T) {
	distOptional := tpq.MustParse(`//a[./b and ./c?]`)
	distOptional.Dist = distOptional.FindByTag("c")[0]
	allOptional := tpq.NewQuery("a", tpq.Descendant)
	allOptional.Nodes[0].Optional = true
	ix := buildDoc(t, `<a><b/><c/></a>`)
	for _, c := range []struct {
		name string
		q    *tpq.Query
		want bool
	}{
		{"single node", tpq.MustParse(`//a`), true},
		{"optional branch off the chain", tpq.MustParse(`//a[./b and ./c?]`), true},
		{"maskLeaves leaves", wideQuery(maskLeaves), true},
		{"maskLeaves+1 leaves", wideQuery(maskLeaves + 1), false},
		{"dist on an optional branch", distOptional, false},
		{"no required node", allOptional, false},
	} {
		if got := Covers(c.q); got != c.want {
			t.Errorf("%s: Covers = %v, want %v", c.name, got, c.want)
		}
		ids, _, err := NewEvaluator(ix, c.q).Distinguished(context.Background())
		if (err == nil) != c.want {
			t.Errorf("%s: Distinguished err = %v, want covered = %v", c.name, err, c.want)
		}
		if c.want && len(ids) != 1 {
			t.Errorf("%s: candidates = %v, want the one a", c.name, ids)
		}
	}
}

// TestEvaluatorWithoutGuide: an index loaded from a snapshot carries no
// dataguide; the join must run unpruned and agree with the oracle.
func TestEvaluatorWithoutGuide(t *testing.T) {
	built := buildDoc(t, `<a><b><c/><c/></b><d><c/></d></a>`)
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Load(&buf, built.Document())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Guide() != nil {
		t.Fatal("a loaded index is expected to have no dataguide")
	}
	q := tpq.MustParse(`//b//c`)
	ev := NewEvaluator(ix, q)
	got, stats, err := ev.Distinguished(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || stats.GuidePruned != 0 {
		t.Fatalf("candidates = %v, stats = %+v: want the 2 c under b, nothing guide-pruned", got, stats)
	}
	distinguished(t, ix, q)
}

// TestGuideShortCircuit: tags that all exist but never along a common
// path must be rejected by the dataguide alone — no stream is opened and
// no element is pushed.
func TestGuideShortCircuit(t *testing.T) {
	ix := buildDoc(t, `<a><b>x</b><c>y</c></a>`)
	q := tpq.MustParse(`//b[./c]`)
	ev := NewEvaluator(ix, q)
	got, stats, err := ev.Distinguished(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("candidates = %v, want none", got)
	}
	if !stats.GuideShortCircuit {
		t.Fatalf("stats = %+v: the guide must short-circuit this query", stats)
	}
	if stats.StackPushes != 0 || stats.Emitted != 0 {
		t.Fatalf("stats = %+v: a short-circuited join must not stream", stats)
	}
	// Sanity: the oracle agrees the answer is empty.
	if d := oracleDistinguished(ix, q); len(d) != 0 {
		t.Fatalf("oracle disagrees: %v", d)
	}
}

// TestGuidePruneCounts: elements of the right tag on non-embedding
// paths are skipped before entering the merge.
func TestGuidePruneCounts(t *testing.T) {
	// Two c populations: under b (matches //b//c) and under d (pruned).
	ix := buildDoc(t, `<a><b><c/><c/></b><d><c/><c/><c/></d></a>`)
	ev := NewEvaluator(ix, tpq.MustParse(`//b//c`))
	got, stats, err := ev.Distinguished(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want the 2 c under b", got)
	}
	if stats.GuidePruned < 3 {
		t.Fatalf("stats = %+v: the 3 c under d must be guide-pruned", stats)
	}
}

// TestEvaluatorCancellation: a cancelled context aborts the join at its
// first cancellation probe with the context's error, and Join hands back
// the slice it was appending to as it came in.
func TestEvaluatorCancellation(t *testing.T) {
	b := xmldoc.NewBuilder()
	b.Start("a")
	for i := 0; i < 3*stopCheckEvery; i++ {
		b.Start("b")
		b.End()
	}
	b.End()
	ix := index.Build(b.MustDocument(), text.Pipeline{})
	ev := NewEvaluator(ix, tpq.MustParse(`//a//b`))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids, _, err := ev.Distinguished(ctx)
	if err != context.Canceled || ids != nil {
		t.Fatalf("ids = %d, err = %v: want no answer and context.Canceled", len(ids), err)
	}
	out := append(make([]xmldoc.NodeID, 0, 8), 3, 5)
	ids, _, err = ev.Join(ctx, nil, 0, out)
	if err != context.Canceled || !slices.Equal(ids, out) || cap(ids) != cap(out) {
		t.Fatalf("ids = %v (cap %d), err = %v: want %v (cap %d) and context.Canceled", ids, cap(ids), err, out, cap(out))
	}
}

// TestEvaluatorConcurrent: one Evaluator must serve concurrent
// Distinguished calls (the plan layer shares it across Executes).
func TestEvaluatorConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	ix := randomDoc(r)
	q := tpq.MustParse(`//a[./b]//c`)
	ev := NewEvaluator(ix, q)
	want, _, err := ev.Distinguished(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				got, _, err := ev.Distinguished(context.Background())
				if err != nil {
					done <- err
					return
				}
				if len(got) != len(want) {
					t.Errorf("concurrent run diverged: %v vs %v", got, want)
					done <- nil
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
