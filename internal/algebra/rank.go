package algebra

import (
	"cmp"
	"slices"

	"repro/internal/profile"
)

// Mode selects which ranking components a comparison (or a topkPrune)
// considers — the parametric orders of Section 3.3 / 6.1.
type Mode uint8

const (
	// ModeS ranks by query score only (no ORs in the profile).
	ModeS Mode = iota
	// ModeVS ranks by VOR preference, then query score.
	ModeVS
	// ModeKVS is the paper's default K, V, S.
	ModeKVS
	// ModeVKS is the alternative V, K, S.
	ModeVKS
	// ModeBlend ranks by the combined score K + S with V as tie-break —
	// the weighted fine-tuning of the paper's conclusion (Section 8).
	ModeBlend
	// ModeK compares K alone. No profile ranks by it: it is the mode of
	// the prunes and sorts a rank K,V,S plan runs ahead of its vor
	// operator, where V is not yet known and S cannot matter.
	ModeK
)

func (m Mode) String() string {
	switch m {
	case ModeS:
		return "S"
	case ModeVS:
		return "V,S"
	case ModeKVS:
		return "K,V,S"
	case ModeVKS:
		return "V,K,S"
	case ModeBlend:
		return "K+S,V"
	case ModeK:
		return "K"
	}
	return "?"
}

// ModeForProfile returns the final rank mode a profile calls for.
func ModeForProfile(p *profile.Profile) Mode {
	if p == nil || (len(p.KORs) == 0 && len(p.VORs) == 0) {
		return ModeS
	}
	if p.Rank == profile.Blend {
		return ModeBlend
	}
	if len(p.KORs) == 0 {
		return ModeVS
	}
	if p.Rank == profile.VKS {
		return ModeVKS
	}
	return ModeKVS
}

// Ranker compares answers under a profile's ordering rules. A Ranker
// built with NewRanker precomputes the VOR application order; the zero
// value (with Prof set) works too, at the cost of recomputing it per
// comparison. Rankers are read-only after construction and safe to share
// across the workers of a parallel execution.
type Ranker struct {
	Prof *profile.Profile

	vorOrder []int // precomputed Prof.VORPriorityOrder, may be nil
}

// NewRanker returns a Ranker with the profile's VOR priority order
// precomputed, so rank comparisons on hot paths (sorts, top-k list
// inserts, parallel merges) do not allocate.
func NewRanker(p *profile.Profile) *Ranker {
	r := &Ranker{Prof: p}
	if p != nil && len(p.VORs) > 0 {
		r.vorOrder = p.VORPriorityOrder()
	}
	return r
}

// Compare returns +1 when a ranks strictly before b under the mode, -1
// for the converse, 0 for ties (or V-incomparability, which falls through
// to the next component exactly as Algorithms 2/3 do).
func (r *Ranker) Compare(a, b *Answer, mode Mode) int {
	switch mode {
	case ModeS:
		return cmpFloat(a.S, b.S)
	case ModeVS:
		if c := r.CompareV(a, b); c != 0 {
			return c
		}
		return cmpFloat(a.S, b.S)
	case ModeKVS:
		if c := cmpFloat(a.K, b.K); c != 0 {
			return c
		}
		if c := r.CompareV(a, b); c != 0 {
			return c
		}
		return cmpFloat(a.S, b.S)
	case ModeVKS:
		if c := r.CompareV(a, b); c != 0 {
			return c
		}
		if c := cmpFloat(a.K, b.K); c != 0 {
			return c
		}
		return cmpFloat(a.S, b.S)
	case ModeBlend:
		if c := cmpFloat(a.K+a.S, b.K+b.S); c != 0 {
			return c
		}
		return r.CompareV(a, b)
	case ModeK:
		return cmpFloat(a.K, b.K)
	}
	return 0
}

// CompareV compares the answers' VOR keys under the profile's
// deterministic linearization — each rule's VOR.LinearCompare, composed
// in VORPriorityOrder, prioritized-lexicographically: a weak order
// that agrees with the rules' genuine partial order ≺_V on every pair
// the rules relate, and resolves incomparable pairs by consistent
// classes. Using the raw partial order here would make the composite
// rank comparator cyclic (partial verdicts mixed with NodeID
// tie-breaks), and sorting with a cyclic comparator yields
// implementation-defined output that can rank a dominated answer above
// its dominator and varies with input partitioning — the linearization
// is what makes sequential results well-defined and parallel execution
// reproduce them exactly. 0 means same class: fall through to the next
// rank component, as Algorithms 2/3 do for ties. Both answers carry
// their keys: a plan places vor ahead of every operator whose mode
// compares V (the ones ahead of it run in ModeK).
func (r *Ranker) CompareV(a, b *Answer) int {
	if r.Prof == nil || len(r.Prof.VORs) == 0 {
		return 0
	}
	order := r.vorOrder
	if order == nil {
		order = r.Prof.VORPriorityOrder()
	}
	for _, idx := range order {
		if c := r.Prof.VORs[idx].LinearCompare(&a.VKeys[idx], &b.VKeys[idx]); c != 0 {
			return c
		}
	}
	return 0
}

// LeadVOR is the index in Prof.VORs of the rule CompareV reads first,
// or -1 when the profile has none.
func (r *Ranker) LeadVOR() int {
	switch {
	case r.Prof == nil || len(r.Prof.VORs) == 0:
		return -1
	case r.vorOrder != nil:
		return r.vorOrder[0]
	}
	return r.Prof.VORPriorityOrder()[0]
}

// SortBestFirst orders answers best first under the mode, ties broken
// by NodeID: the total order of every sort operator and of the parallel
// k-merge, which is what makes their results reproduce one another.
func (r *Ranker) SortBestFirst(answers []Answer, mode Mode) {
	slices.SortStableFunc(answers, func(a, b Answer) int {
		if c := r.Compare(&a, &b, mode); c != 0 {
			return -c
		}
		return cmp.Compare(a.Node, b.Node)
	})
}

func cmpFloat(a, b float64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	}
	return 0
}
