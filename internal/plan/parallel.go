// Parallel scan-partitioned plan execution.
//
// The pipelines of Fig. 4 stream distinguished-node candidates, and
// per-candidate matching is independent — the only shared state a sound
// top-k evaluation needs is the pruning threshold. So the
// parallel executor splits the access path's candidate list (tag scan
// or twig output) into contiguous partitions, gives each worker its own
// full operator chain (each chain owns its Matcher, which reuses
// scratch buffers and is not concurrency-safe), and lets the workers
// exchange prune thresholds through an atomic, monotonically tightening
// SharedBound, read and published once per batch. A stale (lower) read
// of the bound is merely looser — it prunes less, never an answer that
// belongs in the top k — so workers never block on each other.
//
// Determinism: each worker returns the top k of its partition under the
// full rank order with NodeID tie-break; the final k-merge sorts the
// union under the same total order, which is exactly the sequential
// result whatever the partition count or goroutine interleaving.
package plan

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/sched"
)

// minPartition is the smallest candidate partition worth a dedicated
// worker: below this, goroutine spawn and per-worker chain construction
// cost more than scanning the partition sequentially.
const minPartition = 256

// maxParallelism caps the worker count ResolveParallelism grants, asked
// for or chosen.
const maxParallelism = 64

// parallelThresholdNodes is the document size (node count) at which
// auto-resolution (Parallelism <= 0) starts granting intra-query
// workers. The benchmark's traced replay set it (bench/layers.go,
// rows plan.execute_par1_us / plan.execute_par2_us): on the 5.7 MB
// ft_single document (324,990 nodes) two workers take 2118 µs against
// 3254 µs sequential on a 2-core box (medians of three traced runs,
// 1.2–2.0x apart) in process; the 468 KB documents of cached_mix and
// live_corpus (tens of thousands of nodes) sit far below it, where
// worker set-up costs more than the partition scan saves (244 vs
// 187 µs). Served end to end, two clients on two cores, auto and
// sequential tie on ft_single and struct_twig (DESIGN.md §9). It is a
// constant, not an option: no workload at hand wants a different value.
const parallelThresholdNodes = 150_000

// WorkerBudget is a non-blocking allowance for *extra* goroutines
// beyond the one the caller already owns (implemented by sched.Budget).
// Execution never blocks on the budget and results are identical
// whether a token is granted or not — a denied token just runs that
// piece of work in the caller's goroutine.
type WorkerBudget interface {
	TryAcquire() bool
	Release()
}

// Drain runs run(0) … run(n-1), each index exactly once, and returns
// when all have finished. It is the one place the request path spawns
// goroutines: the caller's goroutine always works, and up to n-1
// helpers join it — pulling indices off the same atomic queue — only
// while budget grants tokens. Parallel plan partitions and the corpus
// fan-out's units are both its indices, so under one scheduler budget
// their product cannot oversubscribe the machine. A nil budget (library
// use, no scheduler) is a private GOMAXPROCS-1 tokens for this call.
//
// A panic in run on a helper does not take the process down with it:
// the helper recovers it, returns its token and stops; the others drain
// the rest, and once all have finished Drain re-raises the first
// recovered value, with the helper's stack (a helperPanic), on the
// calling goroutine, where a panic in run would have surfaced had no
// helper joined.
func Drain(budget WorkerBudget, n int, run func(i int)) {
	if budget == nil {
		budget = sched.NewBudget(runtime.GOMAXPROCS(0) - 1)
	}
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			run(i)
		}
	}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		fault *helperPanic // the first value a helper recovered
	)
	for h := 1; h < n && budget.TryAcquire(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer budget.Release()
			defer func() {
				if v := recover(); v != nil {
					once.Do(func() { fault = &helperPanic{v, debug.Stack()} })
				}
			}()
			drain()
		}()
	}
	drain()
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}

// helperPanic carries a value a Drain helper recovered to the caller,
// with the helper's stack: the caller's own trace, which net/http logs
// for a handler panic, no longer has the faulting frame.
type helperPanic struct {
	value any
	stack []byte
}

func (p *helperPanic) Error() string {
	return fmt.Sprintf("%v [in a Drain helper]\n\n%s", p.value, p.stack)
}

// Unwrap returns the recovered value if it is an error.
func (p *helperPanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}

// ResolveParallelism is the planner's worker-count choice, beside
// resolveAccess: it maps Options.Parallelism and the document's node
// count to the worker count the plan will report. Served and library
// searches always ask for auto (0); the pinned settings exist for the
// tests, the figure harnesses and the benchmark's par1/par2 rows.
//
//	requested == 1  -> 1 (explicit sequential)
//	requested >= 2  -> requested, capped at maxParallelism (explicit
//	                   parallel; tests force workers on small inputs)
//	requested <= 0  -> auto: GOMAXPROCS when docNodes reaches
//	                   parallelThresholdNodes, else 1 — small documents
//	                   lose under intra-query parallelism, and under
//	                   concurrent load extra workers are pure
//	                   oversubscription.
//
// The result is deterministic for a given document, so it is safe to
// key result caches on (the serving layer does).
func ResolveParallelism(requested, docNodes int) int {
	if requested == 1 {
		return 1
	}
	if requested >= 2 {
		if requested > maxParallelism {
			return maxParallelism
		}
		return requested
	}
	if docNodes < parallelThresholdNodes {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n > maxParallelism {
		n = maxParallelism
	}
	return n
}

// effectiveWorkers scales the resolved parallelism down against the
// actual candidate count at Execute time: auto-resolved workers are
// dropped to one per minPartition candidates (worker setup costs more
// than scanning a short partition), and every worker needs at least one
// candidate. Explicit parallelism skips the load scale-down so tests
// can force workers on small inputs.
func (p *Plan) effectiveWorkers() int {
	n := p.par
	if n <= 1 || p.tiers != nil { // the tier stop reads one chain's prune
		return 1
	}
	if p.parAuto {
		if byLoad := len(p.src.IDs) / minPartition; byLoad < n {
			n = byLoad
		}
	}
	if n > len(p.src.IDs) {
		n = len(p.src.IDs)
	}
	if n < 1 {
		return 1
	}
	return n
}

// executeParallel runs the plan as w scan-partitioned partitions and
// k-merges their results deterministically. The partition *count* is
// fixed at w — that is what makes the result and the reported Workers()
// deterministic — but the *goroutine* count is not: the partitions are
// the indices of one Drain under Options.Budget, so under a saturated
// scheduler the helpers simply don't materialize and the caller runs
// every partition itself. Each partition chain carries its own
// cancellation probe bound to ctx, so a deadline or client disconnect
// aborts every partition cooperatively.
func (p *Plan) executeParallel(ctx context.Context, w int) ([]algebra.Answer, error) {
	ids := p.src.IDs
	shared := algebra.NewSharedBound()
	type workerOut struct {
		top   []algebra.Answer
		stats []algebra.OpStats
	}
	outs := make([]workerOut, w)
	Drain(p.opts.Budget, w, func(i int) {
		lo, hi := i*len(ids)/w, (i+1)*len(ids)/w
		src := &algebra.ListScanOp{Name: p.src.Name, IDs: ids[lo:hi]}
		m := algebra.NewMatcher(p.ix, p.q)
		ops, final, _, _ := p.buildChain(src, m, shared, algebra.NewCancelCheck(ctx))
		algebra.Run(ops[len(ops)-1], p.batch)
		stats := make([]algebra.OpStats, len(ops))
		for j, op := range ops {
			stats[j] = op.Stats()
		}
		outs[i] = workerOut{top: final.TopK(), stats: stats}
		// The chain is dead and TopK copied out: hand the scratch back so
		// the next partition (or the next request) skips the allocations.
		algebra.ReleaseChainScratch(ops)
		m.ReleaseScratch()
	})
	p.lastWorkers = w
	if err := algebra.ContextErr(ctx); err != nil {
		// At least one worker may have stopped mid-partition; its top-k
		// list is not a sound summary of its partition, so the merge
		// below would be a silently truncated answer. Report the abort.
		p.parStats = nil
		return nil, err
	}

	// Position-wise stats merge: worker chains are built by the same
	// buildChain call sequence, so operator j means the same thing in
	// every worker. Counts and wall time are summed — a single worker's
	// chain would misreport the whole execution's traffic (regression:
	// TestParallelStatsAggregate).
	merged := outs[0].stats
	for _, o := range outs[1:] {
		for j := range merged {
			merged[j].In += o.stats[j].In
			merged[j].Out += o.stats[j].Out
			merged[j].Pruned += o.stats[j].Pruned
			merged[j].WallNS += o.stats[j].WallNS
		}
	}
	p.parStats = merged

	// Deterministic k-merge under the same total order as the sequential
	// final sort: rank comparison first, NodeID as tie-break. Partitions
	// are disjoint, so no deduplication is needed.
	all := make([]algebra.Answer, 0, w*p.K)
	for _, o := range outs {
		all = append(all, o.top...)
	}
	p.ranker.SortBestFirst(all, p.Mode)
	if len(all) > p.K {
		all = all[:p.K]
	}
	return all, nil
}
