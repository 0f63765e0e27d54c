// Coverage for the snapshot/entry accessor surface and the
// SearchContext argument contract — the pieces the serving layer leans
// on when it threads one snapshot through validation, cache-key
// derivation and execution.
package corpus

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
	"repro/internal/tpq"
)

func TestEntryAndSnapshotAccessors(t *testing.T) {
	c := testCorpus(t)
	snap := c.Snapshot()

	names := snap.Names()
	if len(names) != 4 {
		t.Fatalf("snapshot names = %v", names)
	}
	// Names returns a copy: mutating it must not corrupt the snapshot.
	names[0] = "clobbered"
	if snap.Names()[0] == "clobbered" {
		t.Fatal("Names aliases the snapshot's backing array")
	}

	e, ok := snap.Entry("d1")
	if !ok {
		t.Fatal("d1 missing")
	}
	if e.Name() != "d1" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.Document() == nil || e.Index() == nil {
		t.Error("entry document/index not populated")
	}
	if e.Generation() == 0 || e.Generation() > snap.Generation() {
		t.Errorf("entry gen %d outside (0, snapshot gen %d]", e.Generation(), snap.Generation())
	}
	if _, ok := snap.Entry("nope"); ok {
		t.Error("Entry(nope) = true")
	}
}

func TestSearchContextArgumentContract(t *testing.T) {
	c := testCorpus(t)
	q := tpq.MustParse(`//car`)

	if _, err := c.SearchContext(context.Background(), nil, nil, 5, plan.Push); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := c.SearchContext(context.Background(), q, nil, -1, plan.Push); err == nil {
		t.Error("negative k accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SearchContext(ctx, q, nil, 5, plan.Push); err == nil {
		t.Error("canceled context returned a merge instead of ctx.Err")
	}
}

// denyBudget never grants a helper token; countBudget grants all and
// counts balanced releases.
type denyBudget struct{}

func (denyBudget) TryAcquire() bool { return false }
func (denyBudget) Release()         { panic("release without acquire") }

type countBudget struct{ acquired, released atomic.Int64 }

func (b *countBudget) TryAcquire() bool { b.acquired.Add(1); return true }
func (b *countBudget) Release()         { b.released.Add(1) }

func TestSetBudgetGatesFanOutHelpers(t *testing.T) {
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)

	// A budget that denies every token: the caller's own goroutine still
	// drains the whole fan-out, so answers are unchanged.
	c := testCorpus(t)
	c.SetBudget(denyBudget{})
	resp, err := c.Search(q, nil, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 || resp.DocsSearched != 4 {
		t.Fatalf("denied-budget search: %d results over %d docs", len(resp.Results), resp.DocsSearched)
	}

	// A granting budget: every acquired token is released.
	c2 := testCorpus(t)
	b := &countBudget{}
	c2.SetBudget(b)
	if _, err := c2.Search(q, nil, 10, plan.Push); err != nil {
		t.Fatal(err)
	}
	if b.acquired.Load() == 0 {
		t.Error("granting budget was never consulted")
	}
	if b.acquired.Load() != b.released.Load() {
		t.Errorf("budget leak: %d acquired, %d released", b.acquired.Load(), b.released.Load())
	}
}

func TestClip(t *testing.T) {
	if got := clip("short", 90); got != "short" {
		t.Errorf("clip(short) = %q", got)
	}
	long := strings.Repeat("x", 120)
	if got := clip(long, 90); len(got) <= 90 || !strings.HasSuffix(got, "…") {
		t.Errorf("clip(long) = %q", got)
	}
}
