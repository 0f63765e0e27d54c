package twig

// The two-sweep structural semijoin: the reference the fused join is
// tested against (TestEvaluatorAgreesWithOracle, FuzzTwigJoin, the
// hand-written cases), itself pinned to the scan path's matcher by
// TestPropertyAgreesWithMatcher. It is the package's first
// implementation, kept for its obviousness: one bottom-up and one
// top-down pass over the sorted tag lists, complete for tree-shaped
// patterns, one pair of passes per Y-pattern.

import (
	"sort"

	"repro/internal/index"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// candidatesOwned returns, per pattern node index, the sorted element IDs
// participating in some embedding of q's required structural skeleton
// (conjunctive semantics; optional-branch slots hold nil), plus per-slot
// ownership: owned[i] reports whether cand[i] is private to the caller
// (false means it aliases the index's tag list and must not be mutated).
func candidatesOwned(ix *index.Index, q *tpq.Query) (cand [][]xmldoc.NodeID, owned []bool) {
	doc := ix.Document()
	pos := doc.Pos()
	n := len(q.Nodes)
	cand = make([][]xmldoc.NodeID, n)
	owned = make([]bool, n)
	skip := make([]bool, n)
	for i := range q.Nodes {
		skip[i] = q.OnOptionalBranch(i)
		if skip[i] {
			continue
		}
		// Tag lists are already sorted in document order. Lazy filtering
		// below copies only when an element is actually removed.
		cand[i] = ix.Elements(q.Nodes[i].Tag)
	}
	// Root axis: an absolute pattern root must be the document root.
	if q.Nodes[0].Axis == tpq.Child {
		root := doc.Root()
		cand[0], owned[0] = filterCOW(cand[0], owned[0], func(e xmldoc.NodeID) bool {
			return e == root
		})
	}

	// Bottom-up: postorder — a node survives if every required child
	// subtree can embed below it.
	post := postorder(q)
	for _, p := range post {
		if skip[p] {
			continue
		}
		for _, c := range q.Nodes[p].Children {
			if skip[c] {
				continue
			}
			if q.Nodes[c].Axis == tpq.Child {
				cand[p], owned[p] = keepWithChildIn(doc, pos, cand[p], owned[p], cand[c])
			} else {
				cand[p], owned[p] = keepWithDescendantIn(pos, cand[p], owned[p], cand[c])
			}
		}
	}
	// Top-down: preorder — a node survives if some surviving parent
	// binding sits above it.
	pre := q.Descendants(0)
	for _, c := range pre {
		if c == 0 || skip[c] {
			continue
		}
		p := q.Nodes[c].Parent
		if q.Nodes[c].Axis == tpq.Child {
			cand[c], owned[c] = keepWithParentIn(doc, cand[c], owned[c], cand[p])
		} else {
			cand[c], owned[c] = keepWithAncestorIn(pos, cand[c], owned[c], cand[p])
		}
	}
	return cand, owned
}

// oracleDistinguished returns the distinguished-node candidates under
// the per-predicate semijoin semantics: one conjunctive two-sweep per
// Y-pattern (where it coincides with the matcher's navigation), the
// per-pattern candidate lists intersected.
func oracleDistinguished(ix *index.Index, q *tpq.Query) []xmldoc.NodeID {
	var result []xmldoc.NodeID
	resultOwned := false
	for i, leaf := range requiredLeaves(q) {
		y, _ := yPattern(q, leaf)
		cands, owned := candidatesOwned(ix, y)
		if i == 0 {
			result, resultOwned = cands[y.Dist], owned[y.Dist]
		} else {
			result, resultOwned = intersectSorted(result, resultOwned, cands[y.Dist])
		}
		if len(result) == 0 {
			return nil
		}
	}
	return result
}

// filterCOW filters xs with keep (called once per element, in document
// order) without copying until the first removal: the unfiltered
// prefix — or the whole list, when nothing is removed — continues to
// alias the input. It returns the filtered list and whether the caller
// now owns its backing array (a shared input that loses no element
// stays shared).
func filterCOW(xs []xmldoc.NodeID, owned bool, keep func(xmldoc.NodeID) bool) ([]xmldoc.NodeID, bool) {
	for i, x := range xs {
		if keep(x) {
			continue
		}
		// First removal: materialize the kept prefix, then filter the rest.
		var out []xmldoc.NodeID
		if owned {
			out = xs[:i]
		} else {
			out = make([]xmldoc.NodeID, i, len(xs)-1)
			copy(out, xs[:i])
		}
		for _, y := range xs[i+1:] {
			if keep(y) {
				out = append(out, y)
			}
		}
		return out, true
	}
	return xs, owned
}

// intersectSorted intersects two ascending NodeID lists, reusing a's
// backing array only when the caller owns it.
func intersectSorted(a []xmldoc.NodeID, aOwned bool, b []xmldoc.NodeID) ([]xmldoc.NodeID, bool) {
	var out []xmldoc.NodeID
	if aOwned {
		out = a[:0]
	} else {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		out = make([]xmldoc.NodeID, 0, n)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out, true
}

// keepWithDescendantIn keeps parents having at least one proper
// descendant in ds. Both lists are sorted by pre, so a single merge
// pointer replaces per-parent binary searches; the test itself is one
// interval comparison on the flat positional arrays.
func keepWithDescendantIn(pos xmldoc.Positions, ps []xmldoc.NodeID, owned bool, ds []xmldoc.NodeID) ([]xmldoc.NodeID, bool) {
	if len(ds) == 0 {
		return nil, true
	}
	di := 0
	return filterCOW(ps, owned, func(p xmldoc.NodeID) bool {
		for di < len(ds) && ds[di] <= p {
			di++
		}
		return di < len(ds) && int32(ds[di]) <= pos.Post[p]
	})
}

// keepWithChildIn keeps parents having a direct child in cs: the
// parents of cs (one O(1) pointer each) are sorted and merged against
// ps.
func keepWithChildIn(doc *xmldoc.Document, pos xmldoc.Positions, ps []xmldoc.NodeID, owned bool, cs []xmldoc.NodeID) ([]xmldoc.NodeID, bool) {
	if len(cs) == 0 {
		return nil, true
	}
	parents := make([]xmldoc.NodeID, 0, len(cs))
	for _, c := range cs {
		parents = append(parents, doc.Parent(c))
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	pi := 0
	return filterCOW(ps, owned, func(p xmldoc.NodeID) bool {
		for pi < len(parents) && parents[pi] < p {
			pi++
		}
		return pi < len(parents) && parents[pi] == p
	})
}

// keepWithParentIn keeps children whose parent is in ps (sorted).
func keepWithParentIn(doc *xmldoc.Document, cs []xmldoc.NodeID, owned bool, ps []xmldoc.NodeID) ([]xmldoc.NodeID, bool) {
	if len(ps) == 0 {
		return nil, true
	}
	return filterCOW(cs, owned, func(c xmldoc.NodeID) bool {
		p := doc.Parent(c)
		if p == xmldoc.InvalidNode {
			return false
		}
		i := sort.Search(len(ps), func(i int) bool { return ps[i] >= p })
		return i < len(ps) && ps[i] == p
	})
}

// keepWithAncestorIn keeps descendants having a proper ancestor in as,
// via a single merge with a stack of active ancestor intervals over the
// flat positional arrays.
func keepWithAncestorIn(pos xmldoc.Positions, ds []xmldoc.NodeID, owned bool, as []xmldoc.NodeID) ([]xmldoc.NodeID, bool) {
	if len(as) == 0 {
		return nil, true
	}
	var stack []int32 // post positions of active ancestors
	ai := 0
	return filterCOW(ds, owned, func(d xmldoc.NodeID) bool {
		// Push ancestors starting before d.
		for ai < len(as) && as[ai] < d {
			aPost := pos.Post[as[ai]]
			// Pop finished intervals first.
			for len(stack) > 0 && stack[len(stack)-1] < int32(as[ai]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, aPost)
			ai++
		}
		// Pop ancestors that end before d starts.
		for len(stack) > 0 && stack[len(stack)-1] < int32(d) {
			stack = stack[:len(stack)-1]
		}
		return len(stack) > 0
	})
}
