package twig

import (
	"context"
	"errors"
	"slices"

	"repro/internal/index"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// errStopped is the internal abort signal of a cancelled join; the
// Evaluator maps it back to the context's error.
var errStopped = errors.New("twig: join stopped")

// errNotCovered is returned for a query Covers rejects: the caller was
// meant to take the scan access path.
var errNotCovered = errors.New("twig: query outside the fused join's coverage (see Covers)")

// Evaluator is the twigjoin access path for one (index, query) pair:
// the query's required-leaf decomposition and each Y-pattern's
// dataguide match are computed once at construction and reused across
// executions — a plan that re-runs its join per Execute pays only for
// the streaming passes.
//
// All Y-patterns evaluate simultaneously in one fused join over the
// full pattern (holisticDistinguished), one bit per required leaf, so
// shared prefix streams — typically the biggest tag lists — are merged
// once instead of once per branch.
//
// An Evaluator is immutable after construction and safe for concurrent
// Distinguished and Join calls.
type Evaluator struct {
	ix     *index.Index
	q      *tpq.Query
	leaves int
	fused  *fusedQuery // nil: not covered, or the guide proved the answer empty
	empty  bool        // some Y-pattern has no guide embedding
	noSkip bool        // tests only: the join without the root-empty skip
}

// NewEvaluator decomposes q and matches each Y-pattern against the
// index's dataguide. For a query Covers rejects it returns an Evaluator
// whose Distinguished reports an error.
func NewEvaluator(ix *index.Index, q *tpq.Query) *Evaluator {
	e := &Evaluator{ix: ix, q: q}
	leaves, ok := coveredLeaves(q)
	if !ok {
		return e
	}
	e.leaves = len(leaves)
	n := len(q.Nodes)
	f := &fusedQuery{
		leafMask: make([]uint64, n),
		selfBit:  make([]uint64, n),
		onChain:  make([]bool, n),
		streams:  make([][]xmldoc.NodeID, n),
	}
	for bi, leaf := range leaves {
		bit := uint64(1) << uint(bi)
		f.full |= bit
		f.selfBit[leaf] = bit
		for t := leaf; t != -1; t = q.Nodes[t].Parent {
			f.leafMask[t] |= bit
		}
	}
	for t := q.Dist; t != -1; t = q.Nodes[t].Parent {
		f.onChain[t] = true
	}
	if g := ix.Guide(); g != nil {
		// Per-node stream pruning: the union of the per-Y guide matches.
		// Sound because a node shared by several Y-patterns may bind an
		// element for any one of them, and the bits an element contributes
		// in the join always correspond to real element chains — a
		// union-admitted element can never manufacture an answer.
		f.allowed = make([][]bool, n)
		for _, leaf := range leaves {
			y, remap := yPattern(q, leaf)
			emb := matchGuide(g, y)
			if emb.empty {
				e.empty = true
				return e
			}
			for t, yt := range remap {
				if yt < 0 {
					continue
				}
				if f.allowed[t] == nil {
					f.allowed[t] = make([]bool, g.Len())
				}
				for gn, ok := range emb.allowed[yt] {
					if ok {
						f.allowed[t][gn] = true
					}
				}
			}
		}
	}
	for i := range q.Nodes {
		if !q.OnOptionalBranch(i) {
			f.streams[i] = ix.Elements(q.Nodes[i].Tag)
		}
	}
	// Keyword-restricted streams (DESIGN §13): a required ftcontains(P)
	// on node l restricts l itself when it is a join leaf, each pattern
	// ancestor whose only required leaf is l, and the distinguished node
	// when it is l or an ancestor of l — in every answer those nodes bind
	// elements at or above an element holding P. No other node may be
	// restricted: one shared with another leaf can bind an element
	// without P for that leaf. A wildcard node keeps its whole stream
	// (Containing("*", P) would probe every element).
	for l, node := range q.Nodes {
		if q.OnOptionalBranch(l) {
			continue
		}
		for _, ft := range node.FT {
			if ft.Optional {
				continue
			}
			for t := l; t != -1; t = q.Nodes[t].Parent {
				only := f.selfBit[l] != 0 && f.leafMask[t] == f.selfBit[l]
				if tag := q.Nodes[t].Tag; tag != "*" && (only || t == q.Dist) {
					if c := ix.Containing(tag, ft.Phrase); len(c) < len(f.streams[t]) {
						f.phrasePruned += len(f.streams[t]) - len(c)
						f.streams[t] = c
					}
				}
			}
		}
	}
	e.fused = f
	return e
}

// Distinguished computes the distinguished-node candidates with the
// fused stack join, under the per-predicate semijoin semantics of the
// scan path's matcher (the differential suite pins the two element for
// element). It returns the join's statistics and aborts cooperatively
// when ctx is cancelled.
func (e *Evaluator) Distinguished(ctx context.Context) ([]xmldoc.NodeID, JoinStats, error) {
	return e.Join(ctx, nil, 0, nil)
}

// Join is Distinguished over members, a sorted subset of Stream (nil:
// all of it), appending to out; a positive limit cuts the answer to its
// first limit candidates, and the join stops once they are decided.
func (e *Evaluator) Join(ctx context.Context, members []xmldoc.NodeID, limit int, out []xmldoc.NodeID) ([]xmldoc.NodeID, JoinStats, error) {
	stats := JoinStats{Leaves: e.leaves}
	if e.empty {
		// The dataguide proved the skeleton embeds nowhere: no join runs.
		stats.GuideShortCircuit = true
		return out, stats, nil
	}
	if e.fused == nil {
		return out, stats, errNotCovered
	}
	var stop func() bool
	if ctx != nil && ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	stats.PhrasePruned = e.fused.phrasePruned
	from := len(out)
	joined, err := holisticDistinguished(e.ix, e.q, e.fused, members, limit, !e.noSkip, out, &stats, stop)
	if errors.Is(err, errStopped) {
		return out[:from], stats, ctx.Err() // the caller's slice, as it came in
	}
	ids := joined[from:]
	stats.Emitted = len(ids)
	decided := members // whatever the guide and the keywords left of it
	if decided == nil {
		decided = e.ix.Elements(e.q.Nodes[e.q.Dist].Tag)
	}
	stats.Read = len(decided)
	if limit > 0 && len(ids) == limit {
		at, _ := slices.BinarySearch(decided, ids[limit-1])
		stats.Read = at + 1
	}
	return joined, stats, nil
}

// Stream is the distinguished node's join stream, its tag list less what
// required keywords rule out (nil: not covered, or the guide says empty).
func (e *Evaluator) Stream() []xmldoc.NodeID {
	if e.empty || e.fused == nil {
		return nil
	}
	return e.fused.streams[e.q.Dist]
}
