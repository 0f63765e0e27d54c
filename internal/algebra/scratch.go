// Arena-style scratch reuse for the serving hot path. Every query
// builds at least one operator chain, and each chain owns four kinds of
// growable buffer: the Matcher's two navigation scratch slices, the
// materialization buffers of SortOp / TopKPruneOp, and the batch buffer
// Run drains the chain through. Under a worker-pool
// scheduler the same handful of goroutines execute every request, so
// pooling these buffers makes steady-state allocation per query drop to
// (nearly) the answers themselves. Buffers are acquired lazily on first
// use and returned explicitly via ReleaseScratch — a released operator
// simply re-acquires on its next Open, so release is always safe, and
// releasing twice is a no-op.
package algebra

import (
	"sync"

	"repro/internal/xmldoc"
)

// slicePool pools slices behind pointers (a slice header in an
// interface would be boxed on every Put). The boxes are pooled too — a
// get parks the emptied box, a put takes one back — so a steady-state
// get/put cycle allocates nothing.
type slicePool[T any] struct{ full, boxes sync.Pool }

func newSlicePool[T any]() *slicePool[T] {
	p := &slicePool[T]{}
	p.full.New = func() any {
		b := make([]T, 0, 64)
		return &b
	}
	p.boxes.New = func() any { return new([]T) }
	return p
}

func (p *slicePool[T]) get() []T {
	box := p.full.Get().(*[]T)
	b := (*box)[:0]
	*box = nil
	p.boxes.Put(box)
	return b
}

func (p *slicePool[T]) put(b []T) {
	box := p.boxes.Get().(*[]T)
	*box = b[:0]
	p.full.Put(box)
}

var (
	nodeBufs   = newSlicePool[xmldoc.NodeID]()
	answerBufs = newSlicePool[Answer]()
)

func getNodeBuf() []xmldoc.NodeID  { return nodeBufs.get() }
func putNodeBuf(b []xmldoc.NodeID) { nodeBufs.put(b) }
func getAnswerBuf() []Answer       { return answerBufs.get() }
func putAnswerBuf(b []Answer)      { answerBufs.put(b) }

// ScratchReleaser is implemented by operators (and the Matcher) that
// hold poolable scratch buffers.
type ScratchReleaser interface{ ReleaseScratch() }

// ReleaseChainScratch returns every pooled buffer held by the chain's
// operators, unwrapping timing decorators. Call it when a chain is done
// producing answers for the current execution; any answers already
// copied out (TopKPruneOp.TopK copies) stay valid. A released chain can
// be re-executed — operators re-acquire scratch on Open.
func ReleaseChainScratch(ops []Operator) {
	for _, op := range ops {
		for {
			u, ok := op.(interface{ Unwrap() Operator })
			if !ok {
				break
			}
			op = u.Unwrap()
		}
		if r, ok := op.(ScratchReleaser); ok {
			r.ReleaseScratch()
		}
	}
}
