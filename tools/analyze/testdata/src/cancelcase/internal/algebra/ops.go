// Fixture for the cancelprobe analyzer: source operators must probe,
// declared probes must fire.
package algebra

// CancelCheck mimics the real probe type: the analyzer matches it by
// type name within the scoped packages.
type CancelCheck struct{ n int }

func (c *CancelCheck) Stop() bool { c.n++; return false }

// BadScanOp is a source operator (emits from a slice, pulls no
// upstream) with no probe: a dead context never aborts it.
type BadScanOp struct {
	items []int
	i     int
}

func (o *BadScanOp) Open() {}

func (o *BadScanOp) NextBatch(dst []int) int { // want cancelprobe "without a cancellation probe"
	n := copy(dst, o.items[o.i:])
	o.i += n
	return n
}

// GoodScanOp probes once per batch.
type GoodScanOp struct {
	items  []int
	i      int
	cancel *CancelCheck
}

func (o *GoodScanOp) Open() {}

func (o *GoodScanOp) NextBatch(dst []int) int {
	if o.cancel.Stop() {
		return 0
	}
	n := copy(dst, o.items[o.i:])
	o.i += n
	return n
}

// FilterOp pulls its input's NextBatch: abort latency is bounded by the
// chain's source, so no probe of its own is required.
type FilterOp struct{ In *GoodScanOp }

func (o *FilterOp) Open() {}

func (o *FilterOp) NextBatch(dst []int) int {
	for {
		n := o.In.NextBatch(dst)
		if n == 0 {
			return 0
		}
		kept := 0
		for _, v := range dst[:n] {
			if v%2 == 0 {
				dst[kept] = v
				kept++
			}
		}
		if kept > 0 {
			return kept
		}
	}
}

// deadProbe accepts a stop probe and never fires it around its loop.
func deadProbe(xs []int, stop func() bool) int { // want cancelprobe "never fires it"
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// liveProbe fires the probe inside the loop.
func liveProbe(xs []int, stop func() bool) int {
	s := 0
	for _, x := range xs {
		if stop != nil && stop() {
			break
		}
		s += x
	}
	return s
}

//pimento:allow cancelprobe fixture: loop is bounded by a tiny constant, probing would cost more than it saves
func allowedDeadProbe(xs []int, stop func() bool) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
