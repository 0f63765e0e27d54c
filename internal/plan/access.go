package plan

import (
	"repro/internal/index"
	"repro/internal/tpq"
	"repro/internal/twig"
)

// AccessPath is how a plan produces distinguished-node candidates. The
// planner picks it (resolveAccess); no request or flag names one, and
// only tests and the benchmark pin one through Options.AccessPath.
type AccessPath uint8

const (
	// AccessAuto picks the access path by a tag-statistics cost estimate:
	// twigjoin when the join covers the query (twig.Covers), the query has
	// a required structural skeleton to exploit (at least two required
	// pattern nodes) and the total length of the lists the join would
	// stream is small relative to the number of scan candidates, scan
	// otherwise.
	AccessAuto AccessPath = iota
	// AccessScan streams the distinguished tag's index list and enforces
	// the skeleton per candidate (RequiredOp) — the paper's indexed
	// nested-loops evaluation.
	AccessScan
	// AccessTwigJoin computes the candidates set-at-a-time with the
	// holistic twig join over the positional index, pruned by the strong
	// dataguide (internal/twig); only value constraints remain for the
	// pipeline to filter. A query the join does not cover (twig.Covers)
	// resolves to AccessScan instead.
	AccessTwigJoin
)

func (a AccessPath) String() string {
	switch a {
	case AccessAuto:
		return "auto"
	case AccessScan:
		return "scan"
	case AccessTwigJoin:
		return "twigjoin"
	}
	return "?"
}

// JoinStats re-exports the twigjoin access path's counters for callers
// above the plan layer (engine responses, /metrics).
type JoinStats = twig.JoinStats

// autoStreamFactor bounds the join's streaming work relative to the
// scan's candidate count: AccessAuto picks twigjoin only when the sum
// of the required skeleton's tag-list lengths is at most this many
// elements per distinguished candidate. The join touches each streamed
// element O(1) times, while the scan's matcher walks tens of arena
// nodes per candidate, so the break-even ratio is well above 1:
// measured on XMark (BenchmarkTwigJoin) the structure-heavy
// benchmark query streams 4.3 elements per candidate and the join wins
// 2.5–3x at every document size down to a few hundred nodes, putting
// break-even near a ratio of ~13. The factor deliberately sits near
// that point: the loss near the boundary is small either way, while
// the pathological shape this gate exists for — a rare distinguished
// tag under huge descendant lists (ratio in the hundreds) — must fall
// to the scan, which only visits the few candidates.
const autoStreamFactor = 16

// resolveAccess maps the requested AccessPath to the one that runs: a
// query the join does not cover scans whatever was asked for (so
// Plan.Access, the plan shape and the twig metrics report what ran),
// and AccessAuto applies the stream-length heuristic.
func (o Options) resolveAccess(ix *index.Index, q *tpq.Query) AccessPath {
	if o.AccessPath == AccessScan || !twig.Covers(q) {
		return AccessScan
	}
	if o.AccessPath == AccessTwigJoin {
		return AccessTwigJoin
	}
	skeleton, streamed := 0, 0
	for i := range q.Nodes {
		if !q.OnOptionalBranch(i) {
			skeleton++
			streamed += ix.TagCount(q.Nodes[i].Tag)
		}
	}
	dist := ix.TagCount(q.Nodes[q.Dist].Tag)
	if skeleton >= 2 && dist > 0 && streamed <= autoStreamFactor*dist {
		return AccessTwigJoin
	}
	return AccessScan
}
