package plan

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// TestResolveParallelism pins the cost model: explicit settings are
// honored (capped), auto goes sequential below the node threshold and
// wide at and above it.
func TestResolveParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		requested, docNodes, want int
	}{
		{1, 1 << 20, 1},                       // explicit sequential, huge doc
		{2, 100, 2},                           // explicit parallel, tiny doc
		{8, 100, 8},                           // explicit honored as-is
		{maxParallelism, 100, maxParallelism}, // at the cap
		{100, 100, maxParallelism},            // above the cap: capped
		{1024, 100, maxParallelism},           // old server ceiling: capped
		{0, parallelThresholdNodes - 1, 1},    // auto, below the threshold
		{0, parallelThresholdNodes, 4},        // auto, at threshold -> GOMAXPROCS
		{0, 1 << 22, 4},                       // auto, far above
		{-1, 10, 1},                           // negative request behaves like 0
	} {
		got := ResolveParallelism(tc.requested, tc.docNodes)
		if got != tc.want {
			t.Errorf("ResolveParallelism(%d, %d) = %d, want %d",
				tc.requested, tc.docNodes, got, tc.want)
		}
	}
}

// TestResolveParallelismGOMAXPROCSCap: with GOMAXPROCS above the cap,
// auto resolution must not exceed maxParallelism.
func TestResolveParallelismGOMAXPROCSCap(t *testing.T) {
	prev := runtime.GOMAXPROCS(maxParallelism + 8)
	defer runtime.GOMAXPROCS(prev)
	if got := ResolveParallelism(0, 1<<22); got != maxParallelism {
		t.Errorf("auto at GOMAXPROCS=%d resolved to %d, want %d",
			maxParallelism+8, got, maxParallelism)
	}
}

// TestPlanParallelismAccessor: the plan reports its resolved
// parallelism — the value cache keys and responses surface.
func TestPlanParallelismAccessor(t *testing.T) {
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, 100*1024)
	ix := index.Build(doc, text.Pipeline{})
	q := workload.Fig5Query()
	for _, tc := range []struct {
		par, want int
	}{
		{0, 1}, // ~6K nodes, below the threshold
		{3, 3}, // explicit
	} {
		p, err := BuildWith(ix, q, nil, 5, Options{Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Parallelism(); got != tc.want {
			t.Errorf("par=%d: Parallelism() = %d, want %d", tc.par, got, tc.want)
		}
	}
}

// countingBudget grants at most cap tokens and records the peak held.
type countingBudget struct {
	held atomic.Int64
	peak atomic.Int64
	cap  int64
}

func (b *countingBudget) TryAcquire() bool {
	if h := b.held.Add(1); h <= b.cap {
		for {
			old := b.peak.Load()
			if h <= old || b.peak.CompareAndSwap(old, h) {
				break
			}
		}
		return true
	}
	b.held.Add(-1)
	return false
}

func (b *countingBudget) Release() { b.held.Add(-1) }

// TestDrain pins the one drain's contract for every budget shape: each
// index runs exactly once, helpers never exceed what the budget grants
// (a helper spawns only on a granted token, so a peak of zero under the
// zero-token budget means the caller ran everything), and every
// acquired token is handed back.
func TestDrain(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, tokens := range []int64{-1, 0, 64} { // -1: the nil WorkerBudget
			var budget WorkerBudget
			cb := &countingBudget{cap: tokens}
			if tokens >= 0 {
				budget = cb
			}
			ran := make([]atomic.Int64, n)
			Drain(budget, n, func(i int) { ran[i].Add(1) })
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("n=%d tokens=%d: index %d ran %d times", n, tokens, i, got)
				}
			}
			if held := cb.held.Load(); held != 0 {
				t.Errorf("n=%d tokens=%d: %d tokens leaked", n, tokens, held)
			}
			maxHelpers := min(max(tokens, 0), max(int64(n)-1, 0))
			if peak := cb.peak.Load(); peak > maxHelpers {
				t.Errorf("n=%d tokens=%d: peak helpers %d, want <= %d", n, tokens, peak, maxHelpers)
			}
		}
	}
}

// goid returns the calling goroutine's ID, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestDrainContainsHelperPanic: a panic in run on a helper goroutine is
// not left to the runtime, which would end the process. The caller
// panics with the same value, and the helper's stack down to the
// faulting frame, once the drain is over, and every token the helpers
// took comes back.
func TestDrainContainsHelperPanic(t *testing.T) {
	boom := errors.New("boom")
	cb := &countingBudget{cap: 1}
	caller, helperRan := goid(), make(chan struct{})
	got := func() (v any) {
		defer func() { v = recover() }()
		Drain(cb, 2, func(int) {
			if goid() == caller {
				<-helperRan // the other index is the helper's
				return
			}
			close(helperRan)
			panic(boom)
		})
		return nil
	}()
	err, _ := got.(error)
	if !errors.Is(err, boom) {
		t.Fatalf("Drain's caller recovered %v, want the helper's %v", got, boom)
	}
	if !strings.Contains(err.Error(), "TestDrainContainsHelperPanic.func") {
		t.Errorf("the re-raised value lacks the helper's faulting frame:\n%v", err)
	}
	if held := cb.held.Load(); held != 0 {
		t.Errorf("%d tokens leaked", held)
	}
	if peak := cb.peak.Load(); peak != 1 {
		t.Errorf("peak helpers %d, want the one the budget granted", peak)
	}
}

// TestParallelBudget: a budget caps helper goroutines but never changes
// the answer — even a zero budget (caller drains every partition) must
// report the full worker count and match the sequential reference. The
// plan is NS-ILtpkP: Push ranks this request on one worker (tiered).
func TestParallelBudget(t *testing.T) {
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, 300*1024)
	ix := index.Build(doc, text.Pipeline{})
	q := workload.Fig5Query()
	prof := workload.Fig5Profile(2)
	seq, err := BuildWith(ix, q, prof, 10, Options{Strategy: InterleaveNoSort, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Execute()
	for _, tokens := range []int64{0, 1, 16} {
		b := &countingBudget{cap: tokens}
		p, err := BuildWith(ix, q, prof, 10, Options{Strategy: InterleaveNoSort, Parallelism: 4, Budget: b})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute()
		if p.Workers() != 4 {
			t.Errorf("tokens=%d: Workers() = %d, want 4 (partition count is budget-independent)",
				tokens, p.Workers())
		}
		assertSameRanking(t, want, got, fmt.Sprintf("budget tokens=%d", tokens))
		if b.held.Load() != 0 {
			t.Errorf("tokens=%d: %d tokens leaked", tokens, b.held.Load())
		}
		maxHelpers := tokens
		if maxHelpers > 3 {
			maxHelpers = 3 // at most w-1 helpers for w=4
		}
		if peak := b.peak.Load(); peak > maxHelpers {
			t.Errorf("tokens=%d: peak helpers %d, want <= %d", tokens, peak, maxHelpers)
		}
	}
}

// TestAutoSequentialOnSmallDocs guards the auto default against regression:
// on a small document the resolved parallelism must be 1 even though
// GOMAXPROCS is larger — the original oversubscription bug resolved
// Parallelism 0 to GOMAXPROCS on every document.
func TestAutoSequentialOnSmallDocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	doc := xmark.GenerateSized(xmark.Config{Seed: 7}, 101*1024)
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//item[./description[. ftcontains "gold"]]`)
	p, err := BuildWith(ix, q, nil, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Parallelism(); got != 1 {
		t.Fatalf("auto parallelism on a %d-node doc = %d, want 1", ix.Document().Len(), got)
	}
	p.Execute()
	if got := p.Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want 1", got)
	}
}
