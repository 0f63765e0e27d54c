package algebra

import (
	"context"
	"time"
)

// CancelCheck is a cooperative cancellation probe threaded through a
// plan's operator chain. Operators move answers a batch at a time, every
// candidate passes through the source operator exactly once and through
// each prune loop at most once, so probing there once per batch lets a
// context deadline or client disconnect abort an execution within one
// batch of extra work instead of burning a worker on a scan nobody is
// waiting for. A probe is one context poll and, under a deadline, one
// clock read — per batch, so it needs no stride of its own.
//
// A CancelCheck is owned by a single operator chain (one goroutine).
type CancelCheck struct {
	ctx      context.Context
	deadline time.Time
	hasDl    bool
	done     bool
}

// NewCancelCheck returns a probe for ctx. A nil ctx (or
// context.Background()) yields a probe that never fires.
func NewCancelCheck(ctx context.Context) *CancelCheck {
	c := &CancelCheck{}
	c.Reset(ctx)
	return c
}

// Reset rebinds the probe to a new context and clears its state, so a
// plan built once can be executed under successive contexts.
func (c *CancelCheck) Reset(ctx context.Context) {
	c.ctx = ctx
	c.done = false
	c.deadline, c.hasDl = time.Time{}, false
	if ctx != nil {
		c.deadline, c.hasDl = ctx.Deadline()
	}
}

// Stop reports whether the chain should abort. It polls the context on
// every call; once the context is done Stop latches true so every
// downstream operator observes the abort immediately. Nil
// receivers (operators outside any cancellable execution) never stop.
//
// Expired deadlines are detected against the clock, not just via
// ctx.Err(): a cancelled Err() requires the runtime to have run the
// context's timer, and on a single-CPU machine a CPU-bound operator
// loop can starve that timer past its own completion.
func (c *CancelCheck) Stop() bool {
	if c == nil || c.ctx == nil {
		return false
	}
	if c.done {
		return true
	}
	if c.ctx.Err() != nil || (c.hasDl && !time.Now().Before(c.deadline)) {
		c.done = true
		return true
	}
	return false
}

// Err returns the context's error, nil when the probe never fired or
// has no context.
func (c *CancelCheck) Err() error {
	if c == nil || c.ctx == nil {
		return nil
	}
	return ContextErr(c.ctx)
}

// ContextErr is ctx.Err() with clock-based deadline detection: it
// reports context.DeadlineExceeded as soon as the deadline has passed,
// even if the runtime has not yet fired the context's cancellation
// timer (which a busy loop on a single CPU can delay indefinitely).
// Execution paths must use it for their post-drain abort checks, or a
// cooperatively-stopped chain could be mistaken for a completed one and
// a truncated top k returned as a success.
func ContextErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}
