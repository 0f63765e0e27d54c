package algebra

import (
	"math"
	"sync/atomic"
)

// SharedBound is a monotonically tightening score threshold shared by
// the topkPrune operators of concurrently executing plan partitions, or
// of the documents of one corpus fan-out.
//
// Each worker publishes the primary-scalar value of its k-th best
// fully-scored answer; every worker may prune a candidate whose maximal
// reachable scalar is strictly below the published bound. Soundness
// rests on two facts:
//
//   - the bound only ever increases (Tighten is a CAS-max), and any
//     published value is witnessed by k real answers whose final primary
//     scalar is at least that value — so a candidate strictly below it
//     has at least k answers ranked strictly above and cannot be in the
//     global top k;
//   - a stale (lower) read is merely a looser bound: it prunes less,
//     never more, so racing readers are always safe.
type SharedBound struct {
	bits atomic.Uint64 // math.Float64bits of the current bound
}

// NewSharedBound returns a bound that starts at -Inf (prunes nothing).
func NewSharedBound() *SharedBound {
	b := &SharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(-1)))
	return b
}

// Load returns the current bound. It may lag behind a concurrent
// Tighten, which is safe: the bound is conservative.
func (b *SharedBound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// sharedEps pads the shared-bound comparison against floating-point
// association error. The published threshold is a fully-accumulated
// scalar (bonuses added one KOROp at a time), while a candidate's
// maximal reachable value is "partial scalar + remaining-bound sum" —
// the same real quantity evaluated in a different association order,
// which can land a few ulps below it. An answer that exactly ties the
// global k-th must survive to the deterministic merge, so the prune
// only fires when the candidate is below the bound by more than any
// plausible accumulated rounding error. Pruning less is always sound.
const sharedEps = 1e-9

// Threshold is the bound less sharedEps, -Inf for a nil bound: k answers
// beat a value strictly below it.
func (b *SharedBound) Threshold() float64 {
	if b == nil {
		return math.Inf(-1)
	}
	return b.Load() - sharedEps
}

// Tighten raises the bound to v if v is larger; lower values are
// ignored so the bound never loosens.
func (b *SharedBound) Tighten(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
