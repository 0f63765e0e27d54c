// Sharded scatter-gather fan-out: the corpus snapshot partitioned by
// consistent hashing over document names, each shard searched by the
// served per-document drain (rank) under a deadline budget carved from
// the request's. A shard shares its k-th threshold only with its own
// documents, so its witnesses leave or stay in the merge together with
// every answer its bound pruned.
//
// The merge is exact: each shard returns its local top k under the one
// total rank order (merge), and any answer outside it is dominated by k
// answers from the same shard, so merging the per-shard lists and
// truncating to k reproduces the global top k byte-for-byte
// (TestFanoutMatchesOracle).
//
// Degradation is the one divergence: a shard that exhausts its carved
// deadline while the request as a whole is still alive is dropped from
// the merge and reported in TimedOutShards — partial answers beat a
// 504 when one shard is cold or slow.
//
// Nothing in the program shards: the serving layer's fan-out is
// SearchContext. The ring stays for the benchmark row that measures it
// (corpus.fanout_sharded_us), which it loses to the per-document drain.
package corpus

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// vnodesPerShard is the number of points each shard owns on the hash
// ring. More vnodes smooth the document distribution and shrink the
// fraction of names that move when the shard count changes.
const vnodesPerShard = 64

// defaultDeadlineFrac is the fraction of the request's remaining
// deadline each shard is granted when ShardOptions.DeadlineFrac is
// unset: most of the budget, with headroom left for the merge.
const defaultDeadlineFrac = 0.9

// hash64 is the ring hash (FNV-1a: stable across processes, so shard
// assignment survives restarts).
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ShardNames partitions names across n shards by consistent hashing:
// each shard owns vnodesPerShard points on a ring and a document lands
// on the shard owning the first point at or after its own hash. The
// assignment depends only on (name, n) — not on what else is
// registered — so adding or removing a document never reshuffles the
// others, and changing n moves only ~1/n of the names. Relative
// insertion order is preserved within each shard.
func ShardNames(names []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	out := make([][]string, n)
	if n == 1 {
		out[0] = append([]string(nil), names...)
		return out
	}
	type point struct {
		h     uint64
		shard int
	}
	ring := make([]point, 0, n*vnodesPerShard)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			ring = append(ring, point{hash64(fmt.Sprintf("shard-%d/%d", s, v)), s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].h != ring[j].h {
			return ring[i].h < ring[j].h
		}
		return ring[i].shard < ring[j].shard
	})
	for _, name := range names {
		h := hash64(name)
		i := sort.Search(len(ring), func(i int) bool { return ring[i].h >= h })
		if i == len(ring) {
			i = 0 // wrap: past the last point lands on the first
		}
		out[ring[i].shard] = append(out[ring[i].shard], name)
	}
	return out
}

// ShardOptions tunes SearchSharded.
type ShardOptions struct {
	// Shards is the number of consistent-hash partitions; below 2 the
	// fan-out is unsharded (SearchContext): no deadline is carved and
	// nothing degrades.
	Shards int
	// DeadlineFrac is the fraction of the request's *remaining* deadline
	// granted to each shard (0 means defaultDeadlineFrac). With no
	// request deadline, shards are unbounded and the fan-out never
	// degrades.
	DeadlineFrac float64
}

// ShardedResponse is a scatter-gather outcome: the merged Response
// plus the degradation report.
type ShardedResponse struct {
	Response
	// Degraded is true when at least one shard blew its deadline budget
	// and was dropped from the merge; Results then cover only the
	// surviving shards (and DocsSearched counts only their documents).
	Degraded bool
	// TimedOutShards lists the dropped shards' indices in ascending
	// order.
	TimedOutShards []int
}

// shardContext carves one shard's deadline budget out of the parent's
// remaining time: frac of what is left at carve time. With no parent
// deadline the shard inherits plain cancellation.
func shardContext(ctx context.Context, frac float64) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		return context.WithCancel(ctx) // already expired; the shard will observe it
	}
	budget := time.Duration(frac * float64(remaining))
	return context.WithDeadline(ctx, time.Now().Add(budget))
}

// shardStart, when non-nil, runs at the start of each shard's work,
// after its deadline is carved: the seam TestSearchShardedDegrades
// slows a shard through.
var shardStart func(shard int)

// SearchSharded evaluates the query against this snapshot as a
// scatter-gather over consistent-hash shards. The shards are the units
// of one budgeted drain, and each shard's documents the units of its
// own (rank); both draw helpers from the corpus's budget (SetBudget),
// so a search runs at most one goroutine per document. With no request
// deadline the result is always complete;
// with one, shards that exhaust their carved budget are dropped and
// reported (Degraded/TimedOutShards) as long as the request itself is
// still alive — a dead request returns its error, never a partial
// merge. Below two shards it is SearchContext.
func (s *Snapshot) SearchSharded(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, opts ShardOptions) (*ShardedResponse, error) {
	if opts.Shards < 2 {
		resp, err := s.SearchContext(ctx, q, prof, k, strat)
		if err != nil {
			return nil, err
		}
		return &ShardedResponse{Response: *resp}, nil
	}
	start := time.Now()
	k, encoded, applied, err := s.personalize(ctx, q, prof, k)
	if err != nil {
		return nil, err
	}
	frac := opts.DeadlineFrac
	if frac <= 0 || frac > 1 {
		frac = defaultDeadlineFrac
	}
	type shard struct {
		id       int
		names    []string
		hits     []docHit
		skipped  int
		timedOut bool
		err      error
	}
	var shards []shard
	for i, names := range ShardNames(s.names, opts.Shards) {
		if len(names) > 0 {
			shards = append(shards, shard{id: i, names: names})
		}
	}
	m := newMerge(prof)
	plan.Drain(s.c.budget, len(shards), func(j int) {
		if algebra.ContextErr(ctx) != nil {
			return // fan-out aborted before this shard's turn
		}
		sh := &shards[j]
		sctx, cancel := shardContext(ctx, frac)
		defer cancel()
		if shardStart != nil {
			shardStart(sh.id)
		}
		sh.hits, sh.skipped, sh.err = s.rank(sctx, encoded, prof, k, strat, sh.names, m)
		if sh.err != nil && algebra.ContextErr(sctx) != nil {
			// Whether the request died too is decided once, after the
			// drain; if it did not, only this shard is dropped.
			sh.timedOut, sh.err = true, nil
		}
	})

	if err := algebra.ContextErr(ctx); err != nil {
		return nil, err
	}
	var (
		all           []docHit
		timedOut      []int
		docs, skipped int
	)
	for _, sh := range shards {
		switch {
		case sh.err != nil:
			return nil, sh.err
		case sh.timedOut:
			timedOut = append(timedOut, sh.id)
		default:
			all = append(all, sh.hits...)
			docs += len(sh.names)
			skipped += sh.skipped
		}
	}
	resp := s.materialize(m.top(all, k), applied, docs, time.Since(start))
	resp.DocsSkipped = skipped
	return &ShardedResponse{
		Response:       *resp,
		Degraded:       len(timedOut) > 0,
		TimedOutShards: timedOut,
	}, nil
}
