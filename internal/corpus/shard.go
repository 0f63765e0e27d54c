// Sharded scatter-gather fan-out: the corpus snapshot partitioned by
// consistent hashing over document names, searched shard-by-shard with
// per-shard deadline budgets carved from the request deadline.
//
// The merge is exact: each shard returns its local top k under the
// profile's total rank order (rank, then document name, then node — the
// same comparator the unsharded path sorts with), and any answer
// outside its shard's top k is dominated by k answers from that same
// shard, so merging the per-shard lists and truncating to k reproduces
// the global top k byte-for-byte. TestSearchShardedMatchesUnsharded and
// the serving layer's differential test pin this equivalence.
//
// Degradation is the one divergence: a shard that exhausts its carved
// deadline while the request as a whole is still alive is dropped from
// the merge and reported in TimedOutShards — partial answers beat a
// 504 when one shard is cold or slow. A degraded response is never
// cached upstream (see the serving layer).
package corpus

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// vnodesPerShard is the number of points each shard owns on the hash
// ring. More vnodes smooth the document distribution and shrink the
// fraction of names that move when the shard count changes.
const vnodesPerShard = 64

// DefaultShardDeadlineFrac is the fraction of the request's remaining
// deadline each shard is granted when ShardOptions.DeadlineFrac is
// unset: most of the budget, with headroom left for the merge.
const DefaultShardDeadlineFrac = 0.9

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
	// fan-out is unsharded (SearchContext): its unit of work is one
	// document, no deadline is carved and nothing degrades.
	Shards int
	// DeadlineFrac is the fraction of the request's *remaining* deadline
	// granted to each shard (0 means DefaultShardDeadlineFrac). With no
	// request deadline, shards are unbounded and the fan-out never
	// degrades.
	DeadlineFrac float64
	// ShardStart, when non-nil, runs at the start of each shard's work,
	// after its deadline is carved — a test seam for simulating a slow
	// shard. Production callers leave it nil.
	ShardStart func(shard int)
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
	// ShardsRun is the number of ring shards that held at least one
	// document (empty shards are skipped, not scattered); 0 for an
	// unsharded fan-out.
	ShardsRun int
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

// SearchSharded evaluates the query against this snapshot as a
// scatter-gather over consistent-hash shards: the shards are the units
// of the snapshot's one fan-out drain (fanOut), so shard workers draw
// from the corpus's shared budget (SetBudget) and shards × per-plan
// workers can never oversubscribe the machine. With no request deadline
// the result is always complete; with one, shards that exhaust their
// carved budget are dropped and reported (Degraded/TimedOutShards) as
// long as the request itself is still alive — a dead request returns
// its error, never a partial merge. Below two shards it is the plain
// per-document fan-out.
func (s *Snapshot) SearchSharded(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, opts ShardOptions) (*ShardedResponse, error) {
	if opts.Shards < 2 {
		units := make([]unit, len(s.names))
		for i := range s.names {
			units[i] = unit{id: i, names: s.names[i : i+1]}
		}
		return s.fanOut(ctx, q, prof, k, strat, units, 0, nil)
	}
	frac := opts.DeadlineFrac
	if frac <= 0 || frac > 1 {
		frac = DefaultShardDeadlineFrac
	}
	var units []unit
	for i, names := range ShardNames(s.names, opts.Shards) {
		if len(names) > 0 {
			units = append(units, unit{id: i, names: names})
		}
	}
	resp, err := s.fanOut(ctx, q, prof, k, strat, units, frac, opts.ShardStart)
	if err != nil {
		return nil, err
	}
	resp.ShardsRun = len(units)
	return resp, nil
}
