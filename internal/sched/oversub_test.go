// Oversubscription regression tests: the end-to-end guarantees the
// scheduler exists for, exercised against the real plan and corpus
// layers (external test package — sched itself stays dependency-free).
package sched_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/text"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// sampleGoroutines polls runtime.NumGoroutine until stop is closed and
// records the peak.
func sampleGoroutines(stop <-chan struct{}, peak *atomic.Int64) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// waitGoroutines waits for the goroutine count to drop back to at most
// want (leak gate — execution goroutines must all exit).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d alive, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSmallDocSearchesStaySequential is the regression for the original
// bug: N concurrent small-document searches admitted through the pool
// must never multiply into N×GOMAXPROCS plan workers. Auto parallelism
// resolves to 1 below the node threshold, so the only goroutines alive
// during the burst are the test's own clients — zero plan helpers.
func TestSmallDocSearchesStaySequential(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8) // the old default would grant 8 workers/request
	defer runtime.GOMAXPROCS(prevProcs)

	doc := xmark.GenerateSized(xmark.Config{Seed: 7}, 101*1024) // ~5.8K nodes, below threshold
	ix := index.Build(doc, text.Pipeline{})
	q := workload.Fig5Query()
	prof := workload.Fig5Profile(2)

	pool := sched.New(sched.Config{Workers: 4})
	const clients = 16

	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	var peak atomic.Int64
	go sampleGoroutines(stop, &peak)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				release, err := pool.Acquire(t.Context())
				if err != nil {
					t.Error(err)
					return
				}
				p, err := plan.BuildWith(ix, q, prof, 10, plan.Options{Budget: pool.Budget()})
				if err == nil {
					if w := p.Parallelism(); w != 1 {
						t.Errorf("small doc resolved parallelism %d, want 1", w)
					}
					p.Execute()
					p.Release()
				} else {
					t.Error(err)
				}
				release()
			}
		}()
	}
	wg.Wait()
	close(stop)

	// Bound: baseline + 16 clients + sampler + small runtime slack. The
	// pre-fix behavior (each request auto-granted GOMAXPROCS=8 workers)
	// would put 4 admitted × 7 helpers = 28 extra goroutines in flight.
	limit := int64(base + clients + 1 + 4)
	if got := peak.Load(); got > limit {
		t.Errorf("peak goroutines %d > limit %d — plan workers spawned for small docs", got, limit)
	}
	waitGoroutines(t, base+2)
}

// TestMixedFanoutParallelBudget is the GOMAXPROCS² regression under
// -race: registry fan-out and explicitly-parallel single-document plans
// run concurrently through one pool, drawing every extra goroutine from
// the one shared budget. Total execution goroutines must stay bounded
// by Workers (admitted) + Workers (budget), never fan-out × per-query.
func TestMixedFanoutParallelBudget(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)

	const workers = 4
	pool := sched.New(sched.Config{Workers: workers})

	reg := corpus.New(text.Pipeline{})
	for i, seed := range []int64{1, 2, 3, 4, 5, 6} {
		reg.Add(string(rune('a'+i)), xmark.GenerateSized(xmark.Config{Seed: seed}, 60*1024))
	}
	reg.SetBudget(pool.Budget())

	big := xmark.GenerateSized(xmark.Config{Seed: 42}, 300*1024)
	bigIx := index.Build(big, text.Pipeline{})
	q := workload.Fig5Query()
	prof := workload.Fig5Profile(2)

	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	var peak atomic.Int64
	go sampleGoroutines(stop, &peak)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				release, err := pool.Acquire(t.Context())
				if err != nil {
					t.Error(err)
					return
				}
				if c%2 == 0 {
					// Registry fan-out: helpers come from the shared budget,
					// per-document plans are pinned sequential.
					if _, err := reg.Search(q, prof, 5, plan.Push); err != nil {
						t.Error(err)
					}
				} else {
					// Explicitly parallel single-document plan: partitions
					// beyond the caller come from the same budget.
					p, err := plan.BuildWith(bigIx, q, prof, 5,
						plan.Options{Parallelism: 8, Budget: pool.Budget()})
					if err != nil {
						t.Error(err)
					} else {
						p.Execute()
						p.Release()
					}
				}
				release()
			}
		}(c)
	}
	wg.Wait()
	close(stop)

	if held := pool.Budget().InUse(); held != 0 {
		t.Errorf("budget tokens leaked: %d still out", held)
	}
	// Bound: baseline + clients + sampler + budget extras (≤ workers) +
	// slack. The old nesting (GOMAXPROCS fan-out semaphore × GOMAXPROCS
	// plan workers) could reach 8×8 = 64 extras.
	limit := int64(base + clients + 1 + workers + 4)
	if got := peak.Load(); got > limit {
		t.Errorf("peak goroutines %d > limit %d — nested oversubscription", got, limit)
	}
	waitGoroutines(t, base+2)
}
