package algebra

import "time"

// timedOp wraps an operator and accumulates the wall-clock time spent
// inside its Open and NextBatch calls into OpStats.WallNS. The
// measurement is *inclusive* of the wrapped operator's upstream chain —
// pulls recurse — so per-operator self time falls out as a subtraction
// between adjacent chain positions, which the consumers (slow-query
// log, /metrics, the Fig. 6/7 harnesses) do at render time.
//
// The wrapper costs two clock reads per batch, not per answer (a few
// dozen pairs per operator on a 9,000-candidate request). It stays
// opt-in: plan compilation inserts it only when Options.Timing is set
// (the serving layer always sets it; library callers and benchmarks
// default to the bare chain).
type timedOp struct {
	inner Operator
	wall  int64
}

// Timer hands out the timing wrappers of one chain from a single
// allocation. A nil Timer wraps nothing: the chain stays bare.
type Timer struct{ arena []timedOp }

// NewTimer returns a Timer with room for ops wrappers.
func NewTimer(ops int) *Timer { return &Timer{arena: make([]timedOp, 0, ops)} }

// Wrap wraps op so its Stats() carry wall time. Wrapping is transparent:
// the returned operator delegates Open/NextBatch and reports the inner
// operator's counters with WallNS filled in.
func (t *Timer) Wrap(op Operator) Operator {
	if t == nil {
		return op
	}
	if len(t.arena) == cap(t.arena) {
		return &timedOp{inner: op} // past the estimate: growing would move the wrappers handed out
	}
	t.arena = append(t.arena, timedOp{inner: op})
	return &t.arena[len(t.arena)-1]
}

func (t *timedOp) Open() {
	start := time.Now()
	t.inner.Open()
	t.wall += int64(time.Since(start))
}

func (t *timedOp) NextBatch(dst []Answer) int {
	start := time.Now()
	n := t.inner.NextBatch(dst)
	t.wall += int64(time.Since(start))
	return n
}

func (t *timedOp) Stats() OpStats {
	s := t.inner.Stats()
	s.WallNS = t.wall
	return s
}

// Unwrap returns the wrapped operator (plan compilation needs the
// concrete operator back for final-prune bookkeeping).
func (t *timedOp) Unwrap() Operator { return t.inner }
