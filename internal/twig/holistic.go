// The fused holistic stack join.
//
// holisticDistinguished is a TwigStack-style merge join run twice over
// the per-tag sorted element lists, each streamed exactly once per
// pass — no per-level list copies, no intersection allocations.
//
// Pass 1 (bottom-up): all required streams are merged in document (pre)
// order. Each interior pattern node keeps a stack of open elements; the
// stack invariant — every entry is a proper ancestor of the one above
// it — holds because an arrival with pre past an entry's post closes
// (pops) that entry first. Entries are popped innermost first
// (increasing post across all stacks). What an entry accumulates is a
// bitmask with one bit per required LEAF: `down` for bits that arrived
// over a descendant-axis edge (propagated to the next outer entry of
// the same stack on pop — a chain below an inner entry is also below
// every outer one) and `child` for bits that arrived over a child-axis
// edge (level-exact, never propagated). A pop hands its bits to the
// innermost open ancestor on its parent pattern node's stack; nesting
// guarantees that ancestor is the stack top (or the entry below it,
// when the top is the same element streamed under two pattern nodes —
// wildcard tags).
//
// Pass 2 (top-down) re-merges only the root→dist chain; see
// holisticDistinguished.
//
// Per-join scratch (stacks, stream cursors, survivor bitsets) is
// recycled through a sync.Pool, mirroring the Matcher's reused
// navigation buffers.

package twig

import (
	"sync"

	"repro/internal/index"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// JoinStats counts what one twigjoin access-path evaluation did; the
// serving layer exports them as pimento_twigjoin_* counters.
type JoinStats struct {
	// Leaves is the number of required leaves (Y-patterns) the fused join
	// evaluates, one bit each.
	Leaves int
	// GuideShortCircuit is true when the dataguide proved the skeleton
	// embeds nowhere and no join ran at all.
	GuideShortCircuit bool
	// GuidePruned counts elements the dataguide removed from join
	// streams (their root path cannot participate in any embedding).
	GuidePruned int
	// PhrasePruned counts elements required keyword predicates removed
	// from join streams: a restricted stream holds only the elements
	// that contain the phrase (Index.Containing).
	PhrasePruned int
	// StackPushes counts pass-1 stack pushes (elements that entered the
	// holistic merge after guide pruning).
	StackPushes int
	// Emitted counts the distinguished-node candidates the join returned.
	Emitted int
	// Read counts the leading elements of the distinguished tag's list
	// (or members) the join decided: all, or through the last candidate
	// a limited join returned; Read - Emitted were rejected, by structure,
	// the dataguide or a required keyword.
	Read int
}

// Add sums another join of the same Evaluator into s (Leaves and PhrasePruned are per Evaluator).
func (s *JoinStats) Add(o JoinStats) {
	s.Leaves, s.PhrasePruned = o.Leaves, o.PhrasePruned
	s.GuideShortCircuit = s.GuideShortCircuit || o.GuideShortCircuit
	s.GuidePruned += o.GuidePruned
	s.StackPushes += o.StackPushes
	s.Emitted += o.Emitted
	s.Read += o.Read
}

// stkEntry is one open element on a pattern node's join stack.
type stkEntry struct {
	elem  xmldoc.NodeID
	post  int32
	level int32
	idx   int32  // position in the pattern node's tag stream
	down  uint64 // leaf bits reached over descendant-axis edges
	child uint64 // leaf bits reached over child-axis edges
}

// stopCheckEvery is how many merge steps pass between cooperative
// cancellation probes.
const stopCheckEvery = 4096

// joiner is the pooled per-join scratch state.
type joiner struct {
	streams [][]xmldoc.NodeID // this run's streams: the query's, the distinguished one maybe cut
	stacks  [][]stkEntry
	surv    [][]uint64
	vals    [][]uint64 // per chain node: final leaf masks
	heads   []int
	parentQ []int
	axisD   []bool // true = descendant axis to the pattern parent
}

var joinerPool = sync.Pool{New: func() any { return new(joiner) }}

// maskLeaves caps the required leaves the join's per-leaf bitmask
// supports; Covers sends wider queries to the scan access path.
const maskLeaves = 64

// fusedQuery is the Evaluator's precomputed metadata for the fused
// per-leaf join: one bit per required leaf, per-node leaf masks, the
// union of the per-Y-pattern dataguide matches and each node's stream.
type fusedQuery struct {
	full     uint64            // all required-leaf bits
	leafMask []uint64          // per node: leaf bits inside its required subtree
	selfBit  []uint64          // per node: its own leaf bit (0: not a leaf)
	onChain  []bool            // on the root→dist chain
	allowed  [][]bool          // per node: union of per-Y guide-allowed sets (nil = all)
	streams  [][]xmldoc.NodeID // per node: its tag list, keyword-restricted (nil: optional branch)
	// phrasePruned is what the keyword restrictions removed from the
	// tag lists (JoinStats.PhrasePruned).
	phrasePruned int
}

// holisticDistinguished computes the distinguished-node candidates of q
// under the per-predicate semijoin semantics in one two-pass stack join
// over the full pattern, instead of one join per Y-pattern — every
// per-tag element list streams at most once per pass — and appends them
// to out. stop, when non-nil, is polled periodically; a true return
// aborts with errStopped. A positive limit asks for the first limit
// candidates in document order only, and the join stops as soon as they
// are decided: in pass 1 when the distinguished node is the pattern root
// (once limit root elements survived and the root's stack is empty,
// every root element ahead of the next arrival is decided), in pass 2
// otherwise. A non-nil members replaces the distinguished stream; with
// skip, pass 1 gallops past elements in no root element (DESIGN §13).
//
// A bit is one required LEAF and every accumulated bit propagates
// upward unconditionally (a classical conjunctive twig join would make
// an entry cover all its child edges before notifying its parent), so
// bits(e@t) reads "some axis-consistent element chain below e reaches
// leaf l", for each l independently — the Y-pattern decomposition
// evaluated simultaneously, with each leaf free to pick its own chain.
// Leaf streams never push at all: a leaf
// delivers its own bit to the open parent entry at arrival (its
// ancestors are exactly the entries still open after the pop loop, and
// a leaf has nothing to accumulate).
//
// Pass 2 re-merges only the root→dist chain nodes: leaf-branch nodes
// influence the answer solely through the bits they left behind in
// pass 1. Each emitted chain entry carries a mask K — "for which
// leaves does some ancestor chain with the required bits reach this
// element" — computed top-down as K(e) = parentK & (bits(e) |
// ^leafMask[node]); a dist element is an answer iff its K covers every
// leaf. Entries reuse stkEntry's mask fields: down holds K, child holds
// the running union of K over the open entries at and below it (the
// descendant-axis parent lookup is then one load from the stack top).
func holisticDistinguished(ix *index.Index, q *tpq.Query, f *fusedQuery, members []xmldoc.NodeID, limit int, skip bool, out []xmldoc.NodeID, stats *JoinStats, stop func() bool) ([]xmldoc.NodeID, error) {
	n := len(q.Nodes)
	doc := ix.Document()
	pos := doc.Pos()
	var guide *index.Dataguide
	if f.allowed != nil {
		guide = ix.Guide()
	}

	j := joinerPool.Get().(*joiner)
	defer joinerPool.Put(j)
	j.reset(n)

	for i := 0; i < n; i++ {
		j.parentQ[i] = q.Nodes[i].Parent
		j.axisD[i] = q.Nodes[i].Axis == tpq.Descendant
	}
	streams := append(j.streams[:0], f.streams...)
	if members != nil {
		streams[q.Dist] = members
	}
	j.streams = streams
	dist := q.Dist
	rootOnly := xmldoc.InvalidNode
	if q.Nodes[0].Axis == tpq.Child {
		rootOnly = doc.Root()
	}
	// advance skips stream elements the guide (or the root axis) rules
	// out, so pruned elements never enter the merge.
	advance := func(i int) {
		s := streams[i]
		for j.heads[i] < len(s) {
			e := s[j.heads[i]]
			if i == 0 && rootOnly != xmldoc.InvalidNode && e != rootOnly {
				j.heads[i]++
				continue
			}
			if guide != nil && f.allowed[i] != nil && !f.allowed[i][guide.ElemGuide(e)] {
				j.heads[i]++
				stats.GuidePruned++
				continue
			}
			return
		}
	}
	for i := range streams {
		if streams[i] == nil {
			continue
		}
		j.heads[i] = 0
		advance(i)
		if f.onChain[i] {
			j.surv[i] = growBitset(j.surv[i], len(streams[i]))
			if i != dist {
				// Final bit masks, read back in pass 2. Only positions whose
				// surv bit is set are ever read, so no zeroing is needed.
				j.vals[i] = grow(j.vals[i], len(streams[i]))
			}
		}
	}

	// notify delivers the leaf bits reachable through an element at
	// pattern node t to the innermost open entry on t's parent stack,
	// skipping the element's own entry when a wildcard streams it under
	// both nodes; a child-axis hop requires the exact level.
	notify := func(t int, elem xmldoc.NodeID, level int32, bits uint64) {
		ps := j.stacks[j.parentQ[t]]
		k := len(ps) - 1
		if k >= 0 && ps[k].elem == elem {
			k--
		}
		if j.axisD[t] {
			if k >= 0 {
				ps[k].down |= bits
			}
		} else if k >= 0 && ps[k].level == level-1 {
			ps[k].child |= bits
		}
	}

	// popOne pops the globally innermost open entry: minimum post, where
	// the per-stack tops hold each stack's minimum because entries nest.
	// Equal posts mean nested entries (both subtrees end at the same
	// node); the larger pre is the innermost and pops first, so inner
	// notifications land while the outer entries are still open. Every
	// pop records chain survival and propagates its accumulated bits —
	// upward to the parent node's innermost open entry, and outward to
	// the next entry of its own stack (descendant-axis bits only: a
	// chain below an inner entry is below every outer one, but a
	// child-axis hop is level-exact).
	//
	// minOpen caches the smallest open post so the common case — the
	// next arrival closes nothing — is one comparison instead of a scan
	// over every stack; pushes lower it, failed pop scans refresh it.
	const noOpen = int32(1<<31 - 1)
	minOpen := noOpen
	rootStop, rootDone := limit > 0 && dist == 0, 0 // rootDone: root survivors
	skip = skip && f.selfBit[0] == 0                // a leaf root streams alone
	popOne := func(threshold int32, all bool) bool {
		t := -1
		var minPost int32
		var minElem xmldoc.NodeID
		for i := range j.stacks {
			if m := len(j.stacks[i]); m > 0 {
				top := &j.stacks[i][m-1]
				if t < 0 || top.post < minPost ||
					(top.post == minPost && top.elem > minElem) {
					t, minPost, minElem = i, top.post, top.elem
				}
			}
		}
		if t < 0 {
			minOpen = noOpen
			return false
		}
		if !all && minPost >= threshold {
			minOpen = minPost
			return false
		}
		m := len(j.stacks[t]) - 1
		e := j.stacks[t][m]
		j.stacks[t] = j.stacks[t][:m]
		below := e.down | e.child
		if f.onChain[t] {
			if t == dist {
				// A dist element must cover every leaf below dist itself;
				// leaves hanging off the chain above are pass 2's job.
				if below&f.leafMask[t] == f.leafMask[t] {
					j.surv[t][e.idx>>6] |= 1 << uint(e.idx&63)
					rootDone++
				}
			} else {
				// Interior chain nodes stay useful with partial bits: the
				// pass-2 mask algebra lets every leaf pick its own chain.
				j.vals[t][e.idx] = below
				if below != 0 || f.leafMask[t] != f.full {
					j.surv[t][e.idx>>6] |= 1 << uint(e.idx&63)
				}
			}
		}
		if t != 0 && below != 0 {
			notify(t, e.elem, e.level, below)
		}
		if m > 0 {
			j.stacks[t][m-1].down |= e.down
		}
		return true
	}

	// Pass 1: merge all streams by pre (ties resolved toward the lower
	// pattern-node index, which is always the parent). Interior elements
	// push and accumulate; leaf elements deliver their bit at arrival.
	steps := 0
	for {
		if steps++; stop != nil && steps%stopCheckEvery == 0 && stop() {
			return nil, errStopped
		}
		s := -1
		var best xmldoc.NodeID
		for i := range streams {
			if streams[i] == nil || j.heads[i] >= len(streams[i]) {
				continue
			}
			if e := streams[i][j.heads[i]]; s < 0 || e < best {
				s, best = i, e
			}
		}
		if s < 0 {
			break
		}
		if minOpen < int32(best) {
			for popOne(int32(best), false) {
			}
		}
		if rootStop && rootDone >= limit && len(j.stacks[0]) == 0 {
			break // no root is open, so every root ahead of best is decided
		}
		if skip && s != 0 && len(j.stacks[0]) == 0 {
			if j.heads[0] >= len(streams[0]) {
				break // no root is open and none will arrive
			}
			if next := streams[0][j.heads[0]]; best < next {
				for i := 1; i < n; i++ {
					if h := j.heads[i]; streams[i] != nil && h < len(streams[i]) && streams[i][h] < next {
						j.heads[i] = index.SeekGE(streams[i], h, next)
						advance(i)
					}
				}
				continue
			}
		}
		if f.selfBit[s] != 0 {
			if s != 0 {
				notify(s, best, pos.Level[best], f.selfBit[s])
			}
			if s == dist {
				// A leaf dist node has no downward obligations of its own.
				h := j.heads[s]
				j.surv[s][h>>6] |= 1 << uint(h&63)
				rootDone++
			}
		} else {
			post := pos.Post[best]
			j.stacks[s] = append(j.stacks[s], stkEntry{
				elem:  best,
				post:  post,
				level: pos.Level[best],
				idx:   int32(j.heads[s]),
			})
			if post < minOpen {
				minOpen = post
			}
			stats.StackPushes++
		}
		j.heads[s]++
		advance(s)
	}
	for popOne(0, true) {
	}

	if dist == 0 {
		// The dist node is the pattern root: no chain hangs above it, so
		// the pass-1 survivors are the answer. A limited join that stopped
		// early left the undecided tail's bits clear.
		from := len(out)
		s0 := streams[0]
		for h := 0; h < len(s0); h++ {
			if w := j.surv[0][h>>6]; w == 0 {
				h |= 63 // skip the rest of an empty word
			} else if w&(1<<uint(h&63)) != 0 {
				if out = append(out, s0[h]); len(out)-from == limit {
					break
				}
			}
		}
		return out, nil
	}

	// Pass 2: top-down over the chain survivors. Pops need no recording
	// or ordering here — entries just expire.
	popTo := func(threshold int32) {
		for i := range j.stacks {
			st := j.stacks[i]
			m := len(st)
			for m > 0 && st[m-1].post < threshold {
				m--
			}
			j.stacks[i] = st[:m]
		}
	}
	advSurv := func(i int) {
		s := streams[i]
		for j.heads[i] < len(s) {
			h := j.heads[i]
			if j.surv[i][h>>6]&(1<<uint(h&63)) != 0 {
				return
			}
			j.heads[i]++
		}
	}
	for i := range streams {
		if streams[i] != nil && f.onChain[i] {
			j.heads[i] = 0
			advSurv(i)
		}
	}
	from := len(out)
	for limit <= 0 || len(out)-from < limit {
		if steps++; stop != nil && steps%stopCheckEvery == 0 && stop() {
			return nil, errStopped
		}
		s := -1
		var best xmldoc.NodeID
		for i := range streams {
			if streams[i] == nil || !f.onChain[i] || j.heads[i] >= len(streams[i]) {
				continue
			}
			// Chain node indices ascend root→dist, so the strict < keeps
			// parents before children on same-element (wildcard) ties.
			if e := streams[i][j.heads[i]]; s < 0 || e < best {
				s, best = i, e
			}
		}
		if s < 0 {
			break
		}
		popTo(int32(best))
		var cand uint64
		if s == 0 {
			cand = f.full
		} else {
			ps := j.stacks[j.parentQ[s]]
			k := len(ps)
			// Same-element wildcard guard, as in pass 1.
			if k > 0 && ps[k-1].elem == best {
				k--
			}
			if j.axisD[s] {
				if k > 0 {
					cand = ps[k-1].child // union of K over the open ancestors
				}
			} else if k > 0 && ps[k-1].level == pos.Level[best]-1 {
				cand = ps[k-1].down // K of the exact-level parent
			}
		}
		if s == dist {
			// Survival already pinned the leaves below dist, so the
			// element's K reduces to cand (see the survival cases above).
			if cand == f.full {
				out = append(out, best)
			}
		} else if cand != 0 {
			h := j.heads[s]
			k := cand & (j.vals[s][h] | ^f.leafMask[s])
			if k != 0 {
				acc := k
				if m := len(j.stacks[s]); m > 0 {
					acc |= j.stacks[s][m-1].child
				}
				j.stacks[s] = append(j.stacks[s], stkEntry{
					elem:  best,
					post:  pos.Post[best],
					level: pos.Level[best],
					down:  k,
					child: acc,
				})
			}
		}
		j.heads[s]++
		advSurv(s)
	}
	return out, nil
}

// reset prepares the pooled scratch for a join over n pattern nodes.
func (j *joiner) reset(n int) {
	j.stacks = grow(j.stacks, n)
	j.surv = grow(j.surv, n)
	j.vals = grow(j.vals, n)
	j.heads = grow(j.heads, n)
	j.parentQ = grow(j.parentQ, n)
	j.axisD = grow(j.axisD, n)
	for i := 0; i < n; i++ {
		j.stacks[i] = j.stacks[i][:0]
		j.heads[i] = 0
	}
}

// grow returns s resized to n elements, reusing its backing array when
// it is large enough. Contents are left stale: every caller either
// overwrites all n slots or (vals) reads only positions it wrote first.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growBitset returns a zeroed bitset able to index bits elements.
func growBitset(b []uint64, bits int) []uint64 {
	b = grow(b, (bits+63)/64)
	for i := range b {
		b[i] = 0
	}
	return b
}
