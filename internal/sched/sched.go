// Package sched is the serving-side worker-pool scheduler. It exists to
// fix an oversubscription bug: pimentod used to hand every concurrent
// request a full machine's worth of plan workers (Parallelism 0 →
// GOMAXPROCS), and the registry fan-out nested another GOMAXPROCS
// semaphore on top, so N concurrent requests could run O(N·GOMAXPROCS)
// — or, mixed with fan-out, O(GOMAXPROCS²) — runnable goroutines.
// Intra-query parallelism is a *loss* below multi-megabyte documents
// (plan.ResolveParallelism's threshold), so under load that was pure
// overhead.
//
// The pool inverts the default: a bounded number of requests execute
// concurrently, each sequential unless the plan layer's cost model
// (plan.ResolveParallelism) grants intra-query workers, and every
// *extra* goroutine anyone wants — parallel plan partitions, registry
// fan-out helpers — is drawn from one shared Budget instead of private
// per-request semaphores. Total execution goroutines are therefore
// bounded by Workers (admitted requests) + Workers (budget extras),
// independent of offered load.
//
// Admission is FIFO-ish with two shedding modes:
//
//   - the waiting room is full            → ErrQueueFull  (serve 503)
//   - a request queued longer than MaxWait → ErrQueueWait (serve 429)
//
// and a request whose context is cancelled or expires while queued gets
// ctx.Err() back, which the serving layer maps to its usual 499/504.
package sched

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by Acquire when the waiting room is at
// capacity: the server is overloaded and the client should back off
// (HTTP 503 + Retry-After).
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrQueueWait is returned by Acquire when the request sat queued
// longer than the pool's MaxWait bound (HTTP 429 + Retry-After).
var ErrQueueWait = errors.New("sched: queued longer than the configured wait bound")

// Config tunes a Pool.
type Config struct {
	// Workers is the number of requests executing concurrently; 0 means
	// GOMAXPROCS (one CPU-bound execution per processor).
	Workers int
	// Queue is the waiting-room capacity. 0 defaults to 64×Workers — a
	// deep queue, because shedding is for genuine overload, not jitter.
	// Negative means no waiting room at all (every busy moment sheds).
	Queue int
	// MaxWait bounds how long a request may sit queued before it is shed
	// with ErrQueueWait. 0 disables the bound (the request's own context
	// deadline still applies while it waits).
	MaxWait time.Duration
	// ObserveWait, when non-nil, is called with the queue wait of every
	// admission that had to queue (the serving layer feeds a histogram).
	ObserveWait func(time.Duration)
}

// Pool is a bounded worker pool with a shed-on-overload waiting room
// and a shared budget for extra execution goroutines.
type Pool struct {
	workers  int
	queueCap int
	maxWait  time.Duration
	observe  func(time.Duration)

	slots  chan struct{}
	budget *Budget

	waiting   atomic.Int64
	running   atomic.Int64
	admitted  atomic.Int64 // admitted without queueing
	queued    atomic.Int64 // admitted after queueing
	shedFull  atomic.Int64
	shedWait  atomic.Int64
	abandoned atomic.Int64 // context cancelled/expired while queued

	// holdEWMA is an exponentially-weighted moving average of slot hold
	// times in nanoseconds (atomic float64 bits), feeding RetryAfter.
	holdEWMA atomic.Uint64
}

// New builds a pool. The pool is ready immediately; there are no
// background goroutines to start or stop.
func New(cfg Config) *Pool {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := cfg.Queue
	if q == 0 {
		q = 64 * w
	}
	if q < 0 {
		q = 0
	}
	p := &Pool{
		workers:  w,
		queueCap: q,
		maxWait:  cfg.MaxWait,
		observe:  cfg.ObserveWait,
		slots:    make(chan struct{}, w),
		budget:   NewBudget(w),
	}
	for i := 0; i < w; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Workers returns the pool's concurrent-execution capacity.
func (p *Pool) Workers() int { return p.workers }

// Budget returns the pool's shared extra-goroutine budget (sized
// Workers): plan partitions and fan-out helpers draw from it, so the
// extras across ALL in-flight requests never exceed one machine's
// worth.
func (p *Pool) Budget() *Budget { return p.budget }

// Acquire admits the caller into the pool, blocking in the waiting room
// when every worker slot is busy. On success it returns a release
// function that must be called exactly once when the execution
// finishes. On failure it returns ErrQueueFull, ErrQueueWait, or
// ctx.Err() — and no slot is held.
func (p *Pool) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case <-p.slots:
		p.admitted.Add(1)
		return p.releaseFunc(), nil
	default:
	}
	if p.waiting.Add(1) > int64(p.queueCap) {
		p.waiting.Add(-1)
		p.shedFull.Add(1)
		return nil, ErrQueueFull
	}
	defer p.waiting.Add(-1)
	var bound <-chan time.Time
	if p.maxWait > 0 {
		t := time.NewTimer(p.maxWait)
		defer t.Stop()
		bound = t.C
	}
	start := time.Now()
	select {
	case <-p.slots:
		p.queued.Add(1)
		if p.observe != nil {
			p.observe(time.Since(start))
		}
		return p.releaseFunc(), nil
	case <-bound:
		p.shedWait.Add(1)
		return nil, ErrQueueWait
	case <-ctx.Done():
		p.abandoned.Add(1)
		return nil, ctx.Err()
	}
}

// releaseFunc transfers the just-taken slot to a once-guarded closure
// and starts the hold-time clock.
func (p *Pool) releaseFunc() func() {
	p.running.Add(1)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			p.running.Add(-1)
			p.recordHold(time.Since(start))
			p.slots <- struct{}{}
		})
	}
}

// recordHold folds a slot hold time into the EWMA (α = 1/8).
func (p *Pool) recordHold(d time.Duration) {
	for {
		old := p.holdEWMA.Load()
		prev := math.Float64frombits(old)
		next := prev + (float64(d.Nanoseconds())-prev)/8
		if p.holdEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RetryAfter estimates, in whole seconds (≥ 1), how long a shed client
// should wait before retrying: the queue's expected drain time at the
// recent average service rate, clamped to [1, 60].
func (p *Pool) RetryAfter() int {
	hold := math.Float64frombits(p.holdEWMA.Load())
	if hold <= 0 {
		return 1
	}
	drainNS := (float64(p.waiting.Load()) + 1) * hold / float64(p.workers)
	secs := int(math.Ceil(drainNS / 1e9))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// Stats is a point-in-time snapshot of the pool's counters.
type Stats struct {
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_capacity"`

	Running int `json:"running"`
	Queued  int `json:"queued"`

	// Admitted ran without queueing; AdmittedQueued waited first.
	Admitted       int64 `json:"admitted"`
	AdmittedQueued int64 `json:"admitted_queued"`
	ShedQueueFull  int64 `json:"shed_queue_full"`
	ShedWait       int64 `json:"shed_wait"`
	// Abandoned requests were cancelled or timed out while queued.
	Abandoned int64 `json:"abandoned"`

	// BudgetInUse is how many extra-goroutine tokens are currently out.
	BudgetInUse int `json:"budget_in_use"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:        p.workers,
		QueueCap:       p.queueCap,
		Running:        int(p.running.Load()),
		Queued:         int(p.waiting.Load()),
		Admitted:       p.admitted.Load(),
		AdmittedQueued: p.queued.Load(),
		ShedQueueFull:  p.shedFull.Load(),
		ShedWait:       p.shedWait.Load(),
		Abandoned:      p.abandoned.Load(),
		BudgetInUse:    p.budget.InUse(),
	}
}

// Budget is a non-blocking counting semaphore for *extra* execution
// goroutines beyond the one each admitted request already owns. Both
// the plan layer's parallel partitions and the corpus fan-out helpers
// draw from one Budget, which is what keeps their product bounded:
// work always proceeds in the caller's goroutine, helpers only join
// when a token is free, and a denied token is not an error — it just
// means that partition runs in the caller.
type Budget struct {
	tokens chan struct{}
	inUse  atomic.Int64
}

// NewBudget returns a budget of n tokens (n < 0 is treated as 0 —
// callers then never get helpers).
func NewBudget(n int) *Budget {
	if n < 0 {
		n = 0
	}
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// TryAcquire takes a token without blocking; false means run the work
// in the calling goroutine instead.
func (b *Budget) TryAcquire() bool {
	select {
	case <-b.tokens:
		b.inUse.Add(1)
		return true
	default:
		return false
	}
}

// Release returns a token taken with TryAcquire.
func (b *Budget) Release() {
	b.inUse.Add(-1)
	b.tokens <- struct{}{}
}

// InUse reports how many tokens are currently held.
func (b *Budget) InUse() int { return int(b.inUse.Load()) }
