// Package twig is the twigjoin access path: one holistic structural
// join, in the family of stack-based twig join algorithms (Bruno et
// al.'s TwigStack lineage), that computes a query's distinguished-node
// candidates set-at-a-time. The paper's plans (Section 6.4) use indexed
// nested loops — the scan access path, algebra.Matcher per candidate —
// and this package is the alternative the plan layer picks when the
// query has a structural skeleton worth exploiting.
//
// The semantics are the engine's per-predicate semijoin (each
// structural obligation is enforced independently, as in the paper's
// plans): the query decomposes into one "Y-pattern" per required leaf —
// the root→dist chain plus the root→leaf chain sharing their prefix —
// and a distinguished element is a candidate iff every Y-pattern embeds
// at it. Structure (tags + axes) is decided here, and so is part of
// each required ftcontains predicate: its phrase restricts the streams
// of the nodes that must contain it in every answer (NewEvaluator), so
// the join reads only the elements holding it. Value predicates and
// keyword scoring stay with the downstream operators. The result equals
// scan + Matcher.MatchRequired element for element, minus candidates
// the downstream ftjoin would drop.
//
// Evaluator (eval.go) matches the Y-patterns against the strong
// dataguide (guide.go) once, then evaluates them all in ONE fused stack
// join over the document's flat (pre, post, level) positional arrays
// (holistic.go) — an ancestor test is one interval comparison, a parent
// test adds a level comparison. Covers says which queries that join
// handles; the plan layer sends every other query down the scan path.
//
// The two-sweep semijoin this package was first built on lives beside
// the tests (oracle_test.go) as the differential oracle.
package twig

import "repro/internal/tpq"

// Covers reports whether the fused join evaluates q: the query needs at
// least one and at most maskLeaves required leaves (one bit each), and
// a distinguished node that is itself required. The plan layer resolves
// every other query to the scan access path.
func Covers(q *tpq.Query) bool {
	_, ok := coveredLeaves(q)
	return ok
}

// coveredLeaves is Covers plus the required leaves it counted.
func coveredLeaves(q *tpq.Query) ([]int, bool) {
	leaves := requiredLeaves(q)
	return leaves, len(leaves) > 0 && len(leaves) <= maskLeaves && !optionalBranch(q, q.Dist)
}

// requiredLeaves returns the required pattern nodes with no required
// children (the distinguished node's own chain is covered by whichever
// leaf lies at or below it; if dist has no required descendants it is a
// leaf itself).
func requiredLeaves(q *tpq.Query) []int {
	var out []int
	for i := range q.Nodes {
		if optionalBranch(q, i) {
			continue
		}
		hasReqChild := false
		for _, c := range q.Nodes[i].Children {
			if !optionalBranch(q, c) {
				hasReqChild = true
				break
			}
		}
		if !hasReqChild {
			out = append(out, i)
		}
	}
	return out
}

// yPattern builds the sub-pattern consisting of the root→dist and
// root→leaf chains of q (sharing their common prefix) and returns it
// with the node remap (remap[full] = index in the Y-pattern, -1 for
// nodes outside it); the Y-pattern's Dist is the remapped q.Dist.
func yPattern(q *tpq.Query, leaf int) (*tpq.Query, []int) {
	include := map[int]bool{}
	for _, n := range q.Ancestors(q.Dist) {
		include[n] = true
	}
	for _, n := range q.Ancestors(leaf) {
		include[n] = true
	}
	// Rebuild in preorder so parents precede children.
	remap := make([]int, len(q.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	var y *tpq.Query
	for _, n := range q.Descendants(0) {
		if !include[n] {
			continue
		}
		src := q.Nodes[n]
		if y == nil {
			y = tpq.NewQuery(src.Tag, src.Axis)
			remap[n] = 0
			continue
		}
		remap[n] = y.AddChild(remap[src.Parent], src.Tag, src.Axis)
	}
	y.Dist = remap[q.Dist]
	return y, remap
}

// optionalBranch reports whether pattern node i lies on an optional
// branch (which never filters).
func optionalBranch(q *tpq.Query, i int) bool {
	for n := i; n != -1; n = q.Nodes[n].Parent {
		if q.Nodes[n].Optional {
			return true
		}
	}
	return false
}

func postorder(q *tpq.Query) []int {
	var out []int
	var rec func(i int)
	rec = func(i int) {
		for _, c := range q.Nodes[i].Children {
			rec(c)
		}
		out = append(out, i)
	}
	rec(0)
	return out
}
