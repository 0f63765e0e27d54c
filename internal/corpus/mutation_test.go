// Tests for the live-corpus machinery: snapshot isolation under
// mutation, generation-stamped fingerprints, and the library-level
// differential equivalence between a mutated corpus and one rebuilt
// from scratch at the same state.
package corpus

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/plan"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

func mustParseXML(t testing.TB, src string) *xmldoc.Document {
	t.Helper()
	d, err := xmldoc.ParseString(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return d
}

func TestSnapshotIsolation(t *testing.T) {
	c := testCorpus(t)
	old := c.Snapshot()
	oldGen := old.Generation()

	// Mutate behind the snapshot's back: replace, delete, create.
	c.Put("d1", mustParseXML(t, carDoc("black", "completely different text", 1)))
	if _, ok := c.Delete("d3"); !ok {
		t.Fatal("Delete(d3) = false")
	}
	c.Put("d9", mustParseXML(t, carDoc("white", "brand new arrival", 2)))

	// The old snapshot still serves the pre-mutation view.
	if old.Len() != 4 || old.Generation() != oldGen {
		t.Fatalf("snapshot mutated: len %d gen %d", old.Len(), old.Generation())
	}
	if _, ok := old.Entry("d3"); !ok {
		t.Error("deleted doc vanished from the old snapshot")
	}
	if _, ok := old.Entry("d9"); ok {
		t.Error("new doc leaked into the old snapshot")
	}
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	oldResp, err := old.SearchContext(context.Background(), q, nil, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if oldResp.DocsSearched != 4 {
		t.Fatalf("old snapshot searched %d docs, want 4", oldResp.DocsSearched)
	}
	for _, r := range oldResp.Results {
		if r.DocName == "d9" {
			t.Error("old snapshot returned a post-snapshot document")
		}
	}

	// The corpus view moved on.
	if c.Len() != 4 || c.Snapshot().Generation() != oldGen+3 {
		t.Fatalf("corpus: len %d gen %d, want 4 at gen %d", c.Len(), c.Snapshot().Generation(), oldGen+3)
	}
	newResp, err := c.SearchContext(context.Background(), q, nil, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range newResp.Results {
		if r.DocName == "d1" {
			t.Error("replaced d1 still matches the old content")
		}
	}
}

func TestGenerationStampedFingerprints(t *testing.T) {
	c := New(text.Pipeline{})
	doc := mustParseXML(t, carDoc("red", "stable content", 10))

	m1 := c.Put("n", doc)
	e1, _ := c.Snapshot().Entry("n")
	fp1 := e1.Fingerprint()

	// Re-put byte-identical content: same content hash, new generation,
	// different fingerprint — the old cache key space is retired.
	m2 := c.Put("n", doc)
	e2, _ := c.Snapshot().Entry("n")
	fp2 := e2.Fingerprint()
	if m2.Gen != m1.Gen+1 {
		t.Fatalf("generations: %d then %d", m1.Gen, m2.Gen)
	}
	if fp1 == fp2 {
		t.Fatalf("identical-content re-put kept fingerprint %q; generation stamp missing", fp1)
	}
	wantSuffix1, wantSuffix2 := fmt.Sprintf("@g%d", m1.Gen), fmt.Sprintf("@g%d", m2.Gen)
	if fp1[:len(fp1)-len(wantSuffix1)] != fp2[:len(fp2)-len(wantSuffix2)] {
		t.Fatalf("content hash changed across identical re-puts: %q vs %q", fp1, fp2)
	}

	// The snapshot fingerprint tracks every mutation, including deletes.
	sfp := c.Snapshot().Fingerprint()
	c.Put("m", mustParseXML(t, carDoc("blue", "other", 20)))
	sfp2 := c.Snapshot().Fingerprint()
	if sfp == sfp2 {
		t.Fatal("snapshot fingerprint unchanged by a put")
	}
	if _, ok := c.Delete("m"); !ok {
		t.Fatal("Delete(m) failed")
	}
	sfp3 := c.Snapshot().Fingerprint()
	if sfp3 == sfp2 {
		t.Fatal("snapshot fingerprint unchanged by a delete")
	}
	if sfp3 == sfp {
		t.Fatal("snapshot fingerprint reverted after put+delete; generations must keep it moving forward")
	}

	// Delete of a missing name: no-op, no generation burn.
	gen := c.Snapshot().Generation()
	if _, ok := c.Delete("ghost"); ok {
		t.Fatal("Delete(ghost) = true")
	}
	if c.Snapshot().Generation() != gen {
		t.Fatal("failed delete bumped the generation")
	}
}

// TestCorpusMutateEquivalence: a corpus that mutated its way to a state
// returns the same search results as one built from scratch at that
// state, for a randomized put/delete walk.
func TestCorpusMutateEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := []string{
		carDoc("red", "good condition, city car", 900),
		carDoc("blue", "good condition and best bid welcome", 1200),
		carDoc("green", "rusty but cheap", 300),
		carDoc("red", "good condition, best bid, NYC pickup", 1500),
	}
	names := []string{"a", "b", "c"}
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)

	live := New(text.Pipeline{})
	state := map[string]string{}
	var order []string

	for step := 0; step < 12; step++ {
		name := names[rng.Intn(len(names))]
		if _, ok := state[name]; ok && rng.Intn(3) == 0 {
			live.Delete(name)
			delete(state, name)
			for i, n := range order {
				if n == name {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
		} else {
			src := pool[rng.Intn(len(pool))]
			if err := live.AddXML(name, src); err != nil {
				t.Fatal(err)
			}
			if _, ok := state[name]; !ok {
				order = append(order, name)
			}
			state[name] = src
		}
		if len(state) == 0 {
			continue
		}

		fresh := New(text.Pipeline{})
		for _, n := range order {
			if err := fresh.AddXML(n, state[n]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := live.Search(q, nil, 10, plan.Push)
		if err != nil {
			t.Fatalf("step %d: live: %v", step, err)
		}
		want, err := fresh.Search(q, nil, 10, plan.Push)
		if err != nil {
			t.Fatalf("step %d: fresh: %v", step, err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: mutated corpus diverged from rebuilt corpus:\n%+v\nvs\n%+v", step, got, want)
		}
	}
}

func TestPreparedCommitSplitsWork(t *testing.T) {
	c := New(text.Pipeline{})
	p := c.Prepare(mustParseXML(t, carDoc("red", "prepared off-lock", 5)))
	if p.Nodes() == 0 {
		t.Fatal("Prepared reports zero nodes")
	}
	// Nothing visible until Commit.
	if c.Len() != 0 || c.Snapshot().Generation() != 0 {
		t.Fatalf("Prepare mutated the corpus: len %d gen %d", c.Len(), c.Snapshot().Generation())
	}
	mut := c.Commit("p", p)
	if mut.Gen != 1 || !mut.Created || mut.Op != "put" || mut.Nodes != p.Nodes() {
		t.Fatalf("Commit mutation = %+v", mut)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after Commit = %d", c.Len())
	}
}
