package corpus

// The corpus fan-out as it stood before its documents shared a k-th
// threshold: every document runs to its own top k, in snapshot order,
// and the merge drops the rest. fanOut and rankHits are kept verbatim
// (renamed with an oracle prefix; the helpers they share with the
// serving code are called as they are today) so TestFanoutMatchesOracle
// and FuzzFanoutMatchesOracle can hold the shared-threshold fan-out to
// them.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// unit is one schedulable piece of a fan-out: the documents one
// goroutine evaluates back to back. The unsharded fan-out's units are
// single documents; the sharded one's are the ring shards.
type unit struct {
	id    int // reported in TimedOutShards when the unit is dropped
	names []string
}

// oracleFanOut is the one budgeted drain behind every corpus search. It
// evaluates the query against each unit's documents — per-document
// plans run strictly sequentially (Parallelism 1): the fan-out itself
// is the parallelism — and merges the units' local top-k lists into
// the global top k.
//
// carve > 0 grants each unit that fraction of the request's remaining
// deadline (shardContext); a unit that exhausts its carve while the
// request is still alive is dropped from the merge and reported in
// TimedOutShards. With carve == 0 a unit runs under ctx itself, so it
// can only time out together with the request, and a dead request
// returns ctx's error — never a partial merge. unitStart, when non-nil,
// runs at the start of each unit (ShardOptions.ShardStart).
func (s *Snapshot) oracleFanOut(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, units []unit, carve float64, unitStart func(id int)) (*ShardedResponse, error) {
	k, err := (&engine.Request{Query: q, K: k}).Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()

	encoded, applied, err := engine.Personalize(ctx, s.c.ac, prof, q)
	if err != nil {
		return nil, err
	}

	type unitResult struct {
		hits     []docHit
		timedOut bool
		err      error
	}
	results := make([]unitResult, len(units))
	plan.Drain(s.c.budget, len(units), func(j int) {
		if algebra.ContextErr(ctx) != nil {
			return // fan-out aborted before this unit's turn
		}
		u, res, uctx := units[j], &results[j], ctx
		if carve > 0 {
			var cancel context.CancelFunc
			uctx, cancel = shardContext(ctx, carve)
			defer cancel()
		}
		if unitStart != nil {
			unitStart(u.id)
		}
		for _, name := range u.names {
			if algebra.ContextErr(uctx) != nil {
				break
			}
			p, err := plan.BuildWith(s.entries[name].idx, encoded, prof, k,
				plan.Options{Strategy: strat, Parallelism: 1})
			if err != nil {
				res.err = fmt.Errorf("corpus: %s: %w", name, err)
				return
			}
			answers, err := p.ExecuteContext(uctx)
			p.Release()
			if err != nil {
				break // uctx expired mid-plan; classified below
			}
			for _, a := range answers {
				res.hits = append(res.hits, docHit{doc: name, a: a})
			}
		}
		if algebra.ContextErr(uctx) != nil {
			// Whether the request died too is decided once, after the
			// drain; if it did not, only this unit is dropped.
			res.hits, res.timedOut = nil, true
			return
		}
		if len(res.hits) > k {
			// Local top k under the global comparator: anything ranked
			// below a unit's own kth answer cannot appear in the merged
			// top k.
			res.hits = oracleRankHits(res.hits, prof, k)
		}
	})

	if err := algebra.ContextErr(ctx); err != nil {
		return nil, err
	}
	var (
		all      []docHit
		timedOut []int
		docs     int
	)
	for j, r := range results {
		switch {
		case r.err != nil:
			return nil, r.err
		case r.timedOut:
			timedOut = append(timedOut, units[j].id)
		default:
			all = append(all, r.hits...)
			docs += len(units[j].names)
		}
	}
	resp := s.materialize(oracleRankHits(all, prof, k), applied, docs, time.Since(start))
	return &ShardedResponse{
		Response:       *resp,
		Degraded:       len(timedOut) > 0,
		TimedOutShards: timedOut,
	}, nil
}

// oracleRankHits sorts hits under the profile's total rank order — rank,
// then document name, then node, so the order is deterministic — and
// truncates to the top k. The final merge and every unit's local top k
// go through this one comparator; the sharded/unsharded
// byte-equivalence depends on them agreeing.
func oracleRankHits(hits []docHit, prof *profile.Profile, k int) []docHit {
	ranker := algebra.NewRanker(prof)
	mode := algebra.ModeForProfile(prof)
	sort.SliceStable(hits, func(i, j int) bool {
		cmp := ranker.Compare(&hits[i].a, &hits[j].a, mode)
		if cmp != 0 {
			return cmp > 0
		}
		if hits[i].doc != hits[j].doc {
			return hits[i].doc < hits[j].doc
		}
		return hits[i].a.Node < hits[j].a.Node
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}
