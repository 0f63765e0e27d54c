package algebra

import (
	"math"
	"strconv"
)

// TopKPruneOp is the paper's OR-aware topkPrune operator (Section 6.3).
// It maintains a list of the current top k answers and prunes incoming
// answers that provably cannot reach the final top k, accounting for:
//
//   - SBound (query-scorebound): the maximum S an answer can still gain
//     from score-contributing operators later in the plan (Algorithm 1);
//   - the VOR partial order ≺_V (Algorithm 2);
//   - KorBound (kor-scorebound): the sum of the maximal scores of the
//     keyword-based ORs remaining in the plan (Algorithm 3).
//
// Non-pruned answers are kept in the flow (forwarded downstream); the
// operator's list is exposed for plans whose final operator it is.
//
// Three documented clarifications of the paper's pseudo-code (DESIGN.md §6):
// Algorithm 3 elides the branch for a.K != kth.K when kor-scorebound is
// 0 — we prune when a.K is strictly lower (K is final) and insert when
// strictly higher; when kor-scorebound > 0 its line 9 would insert
// regardless of K — we insert only answers whose current K beats the kth,
// keeping the list a valid (conservative) threshold while K can still
// grow; and the algorithms keep an answer that ties the kth — once both
// bounds are 0 every component is final, so the total order of insert
// and SortBestFirst (rank, then NodeID) decides: a tie with a larger
// NodeID has k list entries ahead of it for good and is pruned.
type TopKPruneOp struct {
	In Operator
	K  int
	// Mode is the plan's final rank mode, or ModeK ahead of a rank K,V,S
	// plan's vor operator: a prune that reads K alone.
	Mode   Mode
	Ranker *Ranker
	// SBound is Algorithm 1's query-scorebound at this plan position.
	SBound float64
	// KorBound is Algorithm 3's kor-scorebound at this plan position.
	KorBound float64
	// SortedInput enables bulk pruning (Section 6.4): on input sorted by
	// the current rank order, the first pruned answer ends the stream.
	SortedInput bool
	// Shared, when non-nil, is the threshold the partitions of a
	// parallel execution, or the documents of a corpus fan-out, share:
	// the operator prunes candidates provably below it and publishes its
	// own k-th fully-scored primary scalar into it.
	// Only modes whose primary rank component is a scalar participate
	// (S for ModeS, K for ModeKVS and ModeK, K+S for ModeBlend); the
	// V-first modes rank by a partial order that a single float cannot
	// bound.
	Shared *SharedBound
	// Cancel, when non-nil, aborts the prune loop early — the loop can
	// consume arbitrarily many candidates without emitting one, so it
	// needs its own checkpoint for bounded abort latency.
	Cancel *CancelCheck

	list   []Answer
	done   bool
	shared float64 // Shared's Threshold as of this batch
	stats  OpStats
}

func (o *TopKPruneOp) Open() {
	o.In.Open()
	if o.list == nil {
		o.list = getAnswerBuf()
	}
	o.list = o.list[:0]
	o.done = false
	o.shared = math.Inf(-1)
	o.stats = OpStats{Name: o.stats.Name}
}

// NextBatch prunes one input batch in place. The cross-partition bound
// is read once before the batch and published once after it: a stale
// read only prunes less, and what is published is still witnessed by k
// fully-scored answers.
func (o *TopKPruneOp) NextBatch(dst []Answer) int {
	if o.SortedInput {
		return o.nextSorted(dst)
	}
	for {
		n := o.In.NextBatch(dst)
		if n == 0 || o.Cancel.Stop() {
			return 0
		}
		o.loadShared()
		kept := 0
		for i := range dst[:n] {
			if o.consider(&dst[i]) {
				dst[kept] = dst[i]
				kept++
			}
		}
		o.publishShared()
		o.stats.In += n
		o.stats.Out += kept
		o.stats.Pruned += n - kept
		if kept > 0 {
			return kept
		}
	}
}

// nextSorted is bulk pruning (Section 6.4): on input sorted by the
// current rank order the first pruned answer ends the stream. It asks
// its input only for answers it is certain to consume — as many as the
// list has free places (each is inserted and kept), then one at a time —
// so the input's counters never include answers the bulk prune left
// unread, whatever dst's size.
func (o *TopKPruneOp) nextSorted(dst []Answer) int {
	if o.done || o.Cancel.Stop() {
		return 0
	}
	o.loadShared()
	kept := 0
	for kept < len(dst) && !o.done {
		want := min(max(o.K-len(o.list), 1), len(dst)-kept)
		n := o.In.NextBatch(dst[kept : kept+want])
		if n == 0 {
			break
		}
		for range n {
			o.stats.In++
			if !o.consider(&dst[kept]) {
				// Everything after a pruned answer in a sorted stream is
				// at most as good.
				o.stats.Pruned++
				o.done = true
				break
			}
			kept++
		}
	}
	o.publishShared()
	o.stats.Out += kept
	return kept
}

// Stats returns the counters under the operator's display name.
func (o *TopKPruneOp) Stats() OpStats {
	if o.stats.Name == "" {
		b := append(strconv.AppendInt([]byte("topkPrune(k="), int64(o.K), 10), ',')
		b = append(b, o.Mode.String()...)
		if o.SBound > 0 {
			b = strconv.AppendFloat(append(b, ",sbound="...), o.SBound, 'g', 2, 64)
		}
		if o.KorBound > 0 {
			b = strconv.AppendFloat(append(b, ",korbound="...), o.KorBound, 'g', 2, 64)
		}
		if o.SortedInput {
			b = append(b, ",sorted"...)
		}
		o.stats.Name = string(append(b, ')'))
	}
	return o.stats
}

// TopK returns the operator's current top-k list, ordered best-first by
// the operator's mode. Valid after the stream is drained.
func (o *TopKPruneOp) TopK() []Answer {
	out := make([]Answer, len(o.list))
	copy(out, o.list)
	return out
}

// HoldsAbove reports whether the list holds k answers whose K is
// strictly above bound, which no answer with K ≤ bound can then join.
func (o *TopKPruneOp) HoldsAbove(bound float64) bool {
	return len(o.list) == o.K && o.list[len(o.list)-1].K > bound
}

// HoldsClassAbove reports whether the list holds k answers each ranking,
// under K,V,S, strictly above every answer with K ≤ bound outside the
// class of the ranker's lead VOR: the k-th's K is above bound, or equal
// to it and the k-th in the class. The lead rule must be of form (1)
// without common equalities, about every answer's tag: LinearCompare
// then ranks its class first, and it decides V before any other rule.
func (o *TopKPruneOp) HoldsClassAbove(bound float64) bool {
	if len(o.list) < o.K {
		return false
	}
	kth := &o.list[len(o.list)-1]
	if kth.K > bound {
		return true
	}
	v := o.Ranker.LeadVOR()
	return kth.K == bound && o.Ranker.Prof.VORs[v].MatchesConst(&kth.VKeys[v])
}

// ReleaseScratch returns the top-k list to the shared pool; the next
// Open re-acquires. Call only after TopK (which copies) — the operator's
// own list is pool property afterwards.
func (o *TopKPruneOp) ReleaseScratch() {
	if o.list == nil {
		return
	}
	putAnswerBuf(o.list)
	o.list = nil
}

// consider decides an incoming answer's fate: false prunes it, true
// keeps it in the flow (inserting it into the top-k list when warranted).
func (o *TopKPruneOp) consider(a *Answer) bool {
	if o.sharedPrune(a) {
		return false
	}
	if len(o.list) < o.K {
		o.insert(a)
		return true
	}
	kth := &o.list[len(o.list)-1]
	if o.SBound == 0 && o.KorBound == 0 && o.Mode != ModeK {
		// Every component is final: the total order decides, ties by
		// NodeID as insert and SortBestFirst break them.
		if c := o.Ranker.Compare(a, kth, o.Mode); c < 0 || (c == 0 && a.Node > kth.Node) {
			return false
		}
		o.insert(a)
		return true
	}
	switch o.Mode {
	case ModeS:
		return o.alg1(a, kth)
	case ModeVS:
		return o.alg2(a, kth)
	case ModeKVS, ModeK:
		return o.alg3(a, kth)
	case ModeVKS:
		return o.algVKS(a, kth)
	case ModeBlend:
		return o.algBlend(a, kth)
	}
	return true
}

// sharedPrune drops a candidate whose maximal reachable primary scalar
// is strictly below the cross-partition bound. A candidate strictly
// below the bound has at least k answers ranked strictly above it in
// the final order, whatever the lower-priority components say. With
// SortedInput the resulting bulk prune stays sound: the primary scalar
// is non-increasing along the sorted stream while the shared bound only
// tightens, so every later candidate is prunable too.
func (o *TopKPruneOp) sharedPrune(a *Answer) bool {
	switch o.Mode {
	case ModeS:
		return a.S+o.SBound < o.shared
	case ModeKVS, ModeK:
		return a.K+o.KorBound < o.shared
	case ModeBlend:
		return a.K+a.S+o.SBound+o.KorBound < o.shared
	}
	return false
}

// loadShared refreshes the operator's copy of the cross-partition bound.
func (o *TopKPruneOp) loadShared() { o.shared = o.Shared.Threshold() }

// publishShared exports the k-th list entry's primary scalar once it is
// final at this plan position (the operator's remaining bound for that
// scalar is zero, so no later operator can change it). The list is
// ordered with the scalar as its leading key, so k entries witness the
// published value.
func (o *TopKPruneOp) publishShared() {
	if o.Shared == nil || len(o.list) < o.K {
		return
	}
	kth := &o.list[len(o.list)-1]
	switch o.Mode {
	case ModeS:
		if o.SBound == 0 {
			o.Shared.Tighten(kth.S)
		}
	case ModeKVS, ModeK:
		if o.KorBound == 0 {
			o.Shared.Tighten(kth.K)
		}
	case ModeBlend:
		if o.SBound == 0 && o.KorBound == 0 {
			o.Shared.Tighten(kth.K + kth.S)
		}
	}
}

// algBlend prunes under the combined K + S rank (the Section 8 weighted
// fine-tuning): an answer is dead once even its maximal future gains
// cannot reach the kth combined score. (V breaks ties only between final
// scores, which consider settles before it gets here.)
func (o *TopKPruneOp) algBlend(a, kth *Answer) bool {
	cur, kthScore := a.K+a.S, kth.K+kth.S
	if cur+o.SBound+o.KorBound < kthScore {
		return false
	}
	if cur > kthScore {
		o.insert(a)
	}
	return true
}

// alg1 is Algorithm 1: prune on S with the query-scorebound.
func (o *TopKPruneOp) alg1(a, kth *Answer) bool {
	if a.S+o.SBound < kth.S {
		return false // prune: cannot reach the kth's score
	}
	if a.S > kth.S {
		o.insert(a) // kth falls off the list but stays in the flow
	}
	return true
}

// alg2 is Algorithm 2: V then S. V keys are fixed once the vor operator
// ran, so a ≺_V verdict is final.
func (o *TopKPruneOp) alg2(a, kth *Answer) bool {
	switch o.Ranker.CompareV(a, kth) {
	case 0: // equal or incomparable w.r.t. ≺_V: fall through to scores
		return o.alg1(a, kth)
	case -1: // kth ≺_V a: a is dominated forever
		return false
	default: // a ≺_V kth: a enters the list; kth stays in the flow
		o.insert(a)
		return true
	}
}

// alg3 is Algorithm 3: K with the kor-scorebound, then — under ModeKVS,
// once K is final and ties — V, then S. Under ModeK it stops at K, which
// is sound at any bound: k answers whose K already exceeds what a's can
// still reach outrank a whatever V and S say. Either way the list's kth
// K, the only thing the bound branch reads, is the k-th largest K seen,
// however the list orders its K-ties.
func (o *TopKPruneOp) alg3(a, kth *Answer) bool {
	if a.K+o.KorBound < kth.K {
		return false // cannot catch up on K
	}
	if a.K > kth.K {
		o.insert(a) // kth falls off the list but stays in the flow
		return true
	}
	if o.Mode == ModeKVS && o.KorBound <= 0 {
		return o.alg2(a, kth)
	}
	return true
}

// algVKS handles the alternative V,K,S rank order: the V verdict is
// final (vor ran already), so V-dominated answers are pruned; V-ties
// reduce to K/S reasoning with bounds.
func (o *TopKPruneOp) algVKS(a, kth *Answer) bool {
	switch o.Ranker.CompareV(a, kth) {
	case -1:
		return false
	case 1:
		o.insert(a)
		return true
	}
	if a.K+o.KorBound < kth.K {
		return false
	}
	if a.K > kth.K || (a.K == kth.K && o.KorBound <= 0 && a.S > kth.S) {
		o.insert(a)
	}
	return true
}

// insert places a into the top-k list at the right position under the
// operator's mode, evicting the current kth when the list is full.
func (o *TopKPruneOp) insert(a *Answer) {
	pos := len(o.list)
	for pos > 0 {
		c := o.Ranker.Compare(a, &o.list[pos-1], o.Mode)
		if c < 0 || (c == 0 && a.Node >= o.list[pos-1].Node) {
			break
		}
		pos--
	}
	if len(o.list) < o.K {
		o.list = append(o.list, Answer{})
	} else if pos == len(o.list) {
		return // full and a sorts after the kth: no change
	}
	copy(o.list[pos+1:], o.list[pos:len(o.list)-1])
	o.list[pos] = *a
}
