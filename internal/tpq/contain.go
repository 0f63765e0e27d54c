package tpq

import "strings"

// This file implements the containment machinery the paper delegates to
// XPath containment algorithms [2, 18]: a tree-pattern homomorphism check
// extended with predicate implication. Two entry points:
//
//   - SubsumedBy(cond, q): does query q subsume the (unanchored) condition
//     pattern cond? This is Section 5.1's applicability test for scoping
//     rules: "a rule p is applicable to a query Q if the condition in p is
//     subsumed by Q".
//   - Contains(super, sub): anchored containment — every document binding
//     that satisfies sub satisfies super; used by minimization and tests.
//
// Both are sound for the extended-TPQ fragment the rules use: a
// homomorphism witnesses containment. With wildcard steps ('*') in play,
// homomorphism-based containment is sound but incomplete for some
// //-and-* interactions (Miklau & Suciu [18]); rule conditions in
// practice use concrete tags, where the check is exact.

// SubsumedBy reports whether the condition pattern cond embeds into q:
// there is a mapping h of cond's pattern nodes to q's non-optional pattern
// nodes preserving tags, mapping pc-edges to pc-edges and ad-edges to
// proper pattern-descendant paths, such that every predicate of cond is
// implied by q's required predicates at (or below) the image node.
func SubsumedBy(cond, q *Query) bool {
	_, ok := embed(cond, q, nil)
	return ok
}

// Embedding returns a witnessing homomorphism for SubsumedBy(cond, q):
// a slice mapping each cond pattern-node index to the q pattern-node it
// embeds onto. ok is false when no embedding exists. Scoping rules use
// the embedding to know where in the query their conclusions attach.
func Embedding(cond, q *Query) (assign []int, ok bool) {
	return embed(cond, q, nil)
}

// Contains reports whether answers(sub) is a subset of answers(super) on
// every document: an anchored homomorphism from super into sub that maps
// root to root (respecting the root axis) and the distinguished node onto
// the distinguished node.
func Contains(super, sub *Query) bool {
	anchor := map[int]func(int) bool{
		0: func(qn int) bool {
			if super.Nodes[0].Axis == Child {
				// super requires its root tag at the document root.
				return qn == 0 && sub.Nodes[0].Axis == Child
			}
			return true
		},
		super.Dist: func(qn int) bool { return qn == sub.Dist },
	}
	_, ok := embed(super, sub, anchor)
	return ok
}

// embed searches for a homomorphism from p into q. anchor optionally
// restricts candidate images for specific p nodes. Optional branches of
// p impose nothing (they are score-only outer-joins), so they are
// excluded from the mapping.
func embed(p, q *Query, anchor map[int]func(int) bool) ([]int, bool) {
	assign := make([]int, len(p.Nodes))
	for i := range assign {
		assign[i] = -1
	}
	all := p.Descendants(0) // preorder: parents before children
	order := all[:0]
	for _, n := range all {
		if !p.OnOptionalBranch(n) {
			order = append(order, n)
		}
	}
	var try func(k int) bool
	try = func(k int) bool {
		if k == len(order) {
			return true
		}
		pn := order[k]
		for qn := range q.Nodes {
			if !candidateOK(p, q, pn, qn, assign, anchor) {
				continue
			}
			assign[pn] = qn
			if try(k + 1) {
				return true
			}
			assign[pn] = -1
		}
		return false
	}
	if try(0) {
		return assign, true
	}
	return nil, false
}

func candidateOK(p, q *Query, pn, qn int, assign []int, anchor map[int]func(int) bool) bool {
	pNode := &p.Nodes[pn]
	qNode := &q.Nodes[qn]
	if qNode.Optional {
		return false // optional branches are not guaranteed to hold
	}
	if pNode.Tag != "*" && pNode.Tag != qNode.Tag {
		return false
	}
	if anchor != nil {
		if ok, present := anchorCheck(anchor, pn, qn); present && !ok {
			return false
		}
	}
	// Structural relation to the already-assigned parent.
	if pNode.Parent != -1 {
		qp := assign[pNode.Parent]
		if pNode.Axis == Child {
			if qNode.Parent != qp || qNode.Axis != Child {
				return false
			}
		} else {
			if !isPatternDescendant(q, qp, qn) {
				return false
			}
		}
	}
	// Predicate implication.
	for _, want := range pNode.Constraints {
		if want.Optional {
			continue // optional predicates in the condition impose nothing
		}
		if !constraintImpliedAt(q, qn, want) {
			return false
		}
	}
	for _, want := range pNode.FT {
		if want.Optional {
			continue
		}
		if !ftImpliedAt(q, qn, want.Phrase) {
			return false
		}
	}
	return true
}

func anchorCheck(anchor map[int]func(int) bool, pn, qn int) (ok, present bool) {
	f, present := anchor[pn]
	if !present {
		return true, false
	}
	return f(qn), true
}

// isPatternDescendant reports whether d is a proper descendant of a in the
// pattern tree (via any mix of pc/ad edges).
func isPatternDescendant(q *Query, a, d int) bool {
	for n := q.Nodes[d].Parent; n != -1; n = q.Nodes[n].Parent {
		if n == a {
			return true
		}
	}
	return false
}

// constraintImpliedAt reports whether some required constraint at q-node
// qn (matching the wanted attribute) implies want.
func constraintImpliedAt(q *Query, qn int, want Constraint) bool {
	for _, have := range q.Nodes[qn].Constraints {
		if have.Optional || have.Attr != want.Attr {
			continue
		}
		if ImpliesConstraint(have.Op, have.Val, want.Op, want.Val) {
			return true
		}
	}
	return false
}

// ftImpliedAt reports whether a required full-text predicate at qn or any
// required pattern descendant of qn implies ftcontains(., phrase).
// Descendants count because ftcontains matches at any depth: if a
// descendant's subtree contains the phrase, so does qn's.
func ftImpliedAt(q *Query, qn int, phrase string) bool {
	for _, d := range q.Descendants(qn) {
		if d != qn && q.Nodes[d].Optional {
			continue
		}
		if d != qn && !requiredPathTo(q, qn, d) {
			continue
		}
		for _, have := range q.Nodes[d].FT {
			if have.Optional {
				continue
			}
			if ImpliesPhrase(have.Phrase, phrase) {
				return true
			}
		}
	}
	return false
}

// requiredPathTo reports whether every pattern node strictly between anc
// and desc (and desc itself) is non-optional.
func requiredPathTo(q *Query, anc, desc int) bool {
	for n := desc; n != anc; n = q.Nodes[n].Parent {
		if n == -1 {
			return false
		}
		if q.Nodes[n].Optional {
			return false
		}
	}
	return true
}

// ImpliesConstraint reports whether (x haveOp haveVal) implies
// (x wantOp wantVal) over the literal's ordered domain. Numeric and
// string domains never imply across each other.
func ImpliesConstraint(haveOp RelOp, haveVal Value, wantOp RelOp, wantVal Value) bool {
	if haveVal.IsNum != wantVal.IsNum {
		return false
	}
	cmp := compareValues(haveVal, wantVal) // have vs want
	switch haveOp {
	case EQ:
		// x = a implies (x op b) iff (a op b).
		return wantOp.Eval(cmp)
	case NE:
		return wantOp == NE && cmp == 0
	case LT:
		switch wantOp {
		case LT, LE:
			return cmp <= 0 // x < a, a <= b => x < b (hence <= b)
		case NE:
			return cmp <= 0 // x < a <= b => x != b
		}
	case LE:
		switch wantOp {
		case LE:
			return cmp <= 0
		case LT, NE:
			return cmp < 0
		}
	case GT:
		switch wantOp {
		case GT, GE, NE:
			return cmp >= 0
		}
	case GE:
		switch wantOp {
		case GE:
			return cmp >= 0
		case GT, NE:
			return cmp > 0
		}
	}
	return false
}

func compareValues(a, b Value) int {
	if a.IsNum {
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(a.Str, b.Str)
}

// ImpliesPhrase reports whether containing an occurrence of have implies
// containing an occurrence of want: want's word sequence is a contiguous
// (case-insensitive) subsequence of have's.
func ImpliesPhrase(have, want string) bool {
	h := strings.Fields(strings.ToLower(have))
	w := strings.Fields(strings.ToLower(want))
	if len(w) == 0 || len(w) > len(h) {
		return false
	}
outer:
	for i := 0; i+len(w) <= len(h); i++ {
		for j := range w {
			if h[i+j] != w[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// Equivalent reports mutual containment of two anchored queries.
func Equivalent(a, b *Query) bool {
	return Contains(a, b) && Contains(b, a)
}
