// Package plan builds the physical query plans of Section 6 and Fig. 7:
// NaivetopkPrune (prune only at the end), InterleavetopkPrune (prune
// after each keyword-based OR, with or without sorting), and
// PushtopKPrune (pruning pushed all the way down the plan), plus the
// kor-scorebound bookkeeping that keeps every prune sound. The planner
// also picks how a plan runs: its access path (access.go) and its
// worker count (parallel.go); Drain, which runs the partitions, is the
// request path's one budgeted goroutine fan-out and also runs the
// corpus's.
package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/tpq"
	"repro/internal/twig"
	"repro/internal/xmldoc"
)

// Strategy selects the plan shape of Fig. 7.
type Strategy uint8

const (
	// Default resolves to Push, the paper's best-performing plan and the
	// best one here at every KOR count: on the 10 MB Fig. 7 document it
	// runs 9–13× faster than the non-sorted interleave, the next best,
	// at 1–4 KORs (EXPERIMENTS.md, "Fig. 7 — four plans on the 10 MB
	// document").
	Default Strategy = iota
	// Naive applies topkPrune once, at the end of the plan (NtpkP).
	Naive
	// InterleaveNoSort applies topkPrune after each KOR without sorting
	// (NS-ILtpkP).
	InterleaveNoSort
	// InterleaveSort sorts before each interleaved topkPrune, enabling
	// bulk pruning (S-ILtpkP).
	InterleaveSort
	// Push pushes topkPrune all the way down: before the first KOR and
	// after each one, and under rank K,V,S once more — on K alone —
	// between the last KOR and vor (PtkpP).
	Push
)

func (s Strategy) String() string {
	switch s {
	case Default:
		return "default(PtpkP)"
	case Naive:
		return "NtpkP"
	case InterleaveNoSort:
		return "NS-ILtpkP"
	case InterleaveSort:
		return "S-ILtpkP"
	case Push:
		return "PtpkP"
	}
	return "?"
}

// Strategies lists the four plans Fig. 7 compares, in the paper's order.
var Strategies = []Strategy{Naive, InterleaveNoSort, InterleaveSort, Push}

// ParseStrategy parses a plan-strategy name as used by the -plan flag
// and the serving API. The empty string means Push, the default.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "push", "default":
		return Push, nil
	case "naive":
		return Naive, nil
	case "interleave", "interleave-nosort":
		return InterleaveNoSort, nil
	case "interleave-sort":
		return InterleaveSort, nil
	}
	return Default, fmt.Errorf("plan: unknown strategy %q (want naive, interleave, interleave-sort or push)", s)
}

// Plan is an executable physical plan.
type Plan struct {
	Strategy Strategy
	Mode     algebra.Mode
	K        int

	// Build context, retained so Execute can instantiate additional
	// operator chains for parallel partitions.
	ix     *index.Index
	q      *tpq.Query
	prof   *profile.Profile
	opts   Options
	ranker *algebra.Ranker

	par       int  // resolved parallelism (ResolveParallelism)
	parAuto   bool // par came from auto-resolution (load scale-down applies)
	scoreFree bool // nothing ranks: the top k is the first k matches
	m         *algebra.Matcher
	kors      []*profile.KOR      // the profile's KORs in application order
	access    AccessPath          // resolved access path (never AccessAuto)
	eval      *twig.Evaluator     // twigjoin access path; nil for scan
	tiers     *tierSource         // the join fed tier by tier; nil: in one piece
	src       *algebra.ListScanOp // the sequential chain's source: the access path's candidates
	distTag   string

	// Last twigjoin execution, summed over its tiers, for the synthetic
	// source OpStats entry and the serving layer's counters.
	joinStats *twig.JoinStats
	joinNS    int64

	root  algebra.Operator
	final *algebra.TopKPruneOp
	ops   []algebra.Operator
	// cancel is the sequential chain's cancellation probe; it is rebound
	// to the caller's context by each ExecuteContext. Parallel workers
	// build their own probes.
	cancel *algebra.CancelCheck

	parStats    []algebra.OpStats // merged worker stats of a parallel Execute
	lastWorkers int               // workers used by the most recent Execute
	batch       int               // answers per pull
}

// batchCap is how many answers one pull moves through an operator chain
// (the drain loops and every sort's materialization use it). The
// per-batch costs — a clock pair per timed operator, a context poll per
// probing operator, one VOR key arena — are amortized over it, while the
// batch (48 B an answer) stays cache-resident as a dozen operators pass
// over it. Fig. 5 n = 1–4 Push, 5.7 MB document, Timing on, sequential,
// 2-core box, median ms per execution by capacity: 1 → 7.4, 16 → 3.5,
// 64 → 3.5, 128 → 2.9, 256 → 2.9, 512 → 2.7, 1024 → 2.6, 4096 → 2.9 —
// flat from 128 up, so a value early on the plateau, which also keeps
// abort latency and the key arena to one small batch. It is a constant,
// not an option: answers and counters are the same at every capacity
// (TestBatchCapacityInvariance) and no workload at hand wants another
// value.
const batchCap = 256

// Options tunes plan compilation beyond the strategy.
type Options struct {
	Strategy Strategy
	// AccessPath is the candidate source. Its zero value, AccessAuto, is
	// the planner's choice (resolveAccess) and the only one a served or
	// library search makes; AccessScan and AccessTwigJoin pin a path for
	// the tests, the ablation rows and the benchmark's scan oracle. The
	// ranked answers are identical on every path.
	AccessPath AccessPath
	// Parallelism is the worker count of an Execute. Its zero value is
	// the planner's choice (ResolveParallelism: sequential below the
	// node-count threshold); 1 pins the sequential reference path and
	// n >= 2 forces n workers, for the tests, the figure harnesses and
	// the benchmark's par1/par2 rows. Results are identical at every
	// setting; see DESIGN.md §9.
	Parallelism int
	// Budget, when non-nil, gates the *extra* goroutines of a parallel
	// Execute (the caller's own goroutine always works): each helper
	// spawns only if Budget.TryAcquire allows. The serving layer passes
	// one shared budget to every plan and the corpus fan-out, bounding
	// total execution goroutines machine-wide. Results do not depend on
	// how many tokens are granted.
	Budget WorkerBudget
	// Timing wraps every operator so Stats() report per-operator wall
	// time (OpStats.WallNS) at the cost of two clock reads per batch.
	// The serving layer and the Fig. 6/7 harnesses enable it; the bare
	// chain stays the default for library callers and benchmarks.
	Timing bool
	// Shared is a corpus fan-out's k-th threshold, which the chain's
	// prunes and a tiered source read (nil for one document).
	Shared *algebra.SharedBound
}

// Build compiles a (possibly profile-encoded) query into a physical plan.
// The query's optional predicates are honored as outer-joins; the
// profile supplies the ordering rules. k is the result size.
func Build(ix *index.Index, q *tpq.Query, prof *profile.Profile, k int, strat Strategy) (*Plan, error) {
	return BuildWith(ix, q, prof, k, Options{Strategy: strat})
}

// BuildWith is Build with full options.
func BuildWith(ix *index.Index, q *tpq.Query, prof *profile.Profile, k int, opts Options) (*Plan, error) {
	return buildWith(ix, q, prof, k, opts, batchCap)
}

// buildWith is BuildWith at a given batch capacity, the tests' way to
// run the same chains at capacities other than batchCap.
func buildWith(ix *index.Index, q *tpq.Query, prof *profile.Profile, k int, opts Options, batch int) (*Plan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("plan: k must be positive, got %d", k)
	}
	if opts.Strategy == Default {
		opts.Strategy = Push
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Strategy: opts.Strategy,
		Mode:     algebra.ModeForProfile(prof),
		K:        k,
		ix:       ix, q: q, prof: prof, opts: opts,
		ranker: algebra.NewRanker(prof),
		batch:  batch,
	}
	p.distTag = q.Nodes[q.Dist].Tag
	p.access = opts.resolveAccess(ix, q)
	p.par = ResolveParallelism(opts.Parallelism, ix.Document().Len())
	p.parAuto = opts.Parallelism <= 0
	// Either access path is a sorted candidate list behind the one source
	// operator: the distinguished tag's index list, or the join's output.
	p.src = &algebra.ListScanOp{Name: "scan(" + p.distTag + ")"}
	if p.access == AccessTwigJoin {
		// The join itself runs lazily at Execute time (ensureSource), so
		// execution timings honestly include the access path's work; the
		// evaluator memoizes the query decomposition and the dataguide
		// match so re-executions pay only for the streaming passes.
		p.eval = twig.NewEvaluator(ix, q)
		p.src.Name = "twigscan(" + p.distTag + ")"
	} else {
		p.src.IDs = ix.Elements(p.distTag)
	}
	// Compiling the chain doubles as the cache pre-warm pass: resolving
	// the phrase lists and computing the kor-scorebounds (MaxKORScore)
	// populate the index's phrase/df/max-score caches for every
	// (tag, phrase) pair the query and profile can probe, so the
	// per-worker rebuilds of a parallel Execute hit read-only snapshots.
	p.m = algebra.NewMatcher(ix, q)
	p.scoreFree = isScoreFree(p.Mode, p.m)
	if prof != nil {
		p.kors = prof.SortKORsByPriority()
	}
	p.cancel = algebra.NewCancelCheck(nil)
	var kFinal, vks *algebra.TopKPruneOp
	p.ops, p.final, kFinal, vks = p.buildChain(p.src, p.m, opts.Shared, p.cancel)
	p.root = p.ops[len(p.ops)-1]
	if p.tiers = newTierSource(p, kFinal, vks); p.tiers != nil {
		p.src.Next = p.tiers.nextTier
	}
	return p, nil
}

// joinLimit is the untiered join's limit, the one-tier stop: a score-free
// prune drops the (k+1)-th candidate, unless a value filter precedes it.
func (p *Plan) joinLimit() int {
	if p.scoreFree && len(p.m.RequiredConstraintUnits()) == 0 {
		return p.K + 1
	}
	return 0
}

// isScoreFree reports whether a plan ranks nothing — no ordering rule
// (mode S), no keyword predicate, no bonus — so its rank order is the
// NodeID order both access paths emit: it compiles no sort, and its
// final prune ends the source's stream at the (k+1)-th answer.
func isScoreFree(mode algebra.Mode, m *algebra.Matcher) bool {
	return mode == algebra.ModeS && len(m.FTUnits()) == 0 && len(m.OptionalBonusUnits()) == 0
}

// buildChain compiles the operator pipeline on top of the given source
// operator. m is the chain's own Matcher (matchers reuse scratch
// buffers and are not safe for concurrent use); shared is the top-k
// threshold the chain exchanges with the workers of a parallel Execute
// or a fan-out's other documents (Options.Shared), nil if none. cancel
// is the chain's cancellation probe, threaded into the scan and prune
// loops, which probe it once per batch (the places a cooperative abort
// must interrupt; see DESIGN.md §10).
// It also returns a Push plan's K-final prune, the first behind the last
// kor, and its prune in the final mode there, behind vor if any.
func (p *Plan) buildChain(src *algebra.ListScanOp, m *algebra.Matcher, shared *algebra.SharedBound, cancel *algebra.CancelCheck) (ops []algebra.Operator, final, kFinal, vks *algebra.TopKPruneOp) {
	ix, prof, k, kors := p.ix, p.prof, p.K, p.kors
	strat, mode, ranker := p.Strategy, p.Mode, p.ranker
	src.Cancel = cancel
	ftUnits := m.FTUnits()

	maxOps := maxChainOps(len(ftUnits), len(kors))
	var timer *algebra.Timer
	if p.opts.Timing {
		timer = algebra.NewTimer(maxOps)
	}
	ops = make([]algebra.Operator, 0, maxOps)
	var op algebra.Operator
	push := func(o algebra.Operator) {
		op = timer.Wrap(o)
		ops = append(ops, op)
	}
	// prune pushes a topkPrune over the chain so far.
	prune := func(mode algebra.Mode, korBound float64, sorted bool) *algebra.TopKPruneOp {
		t := &algebra.TopKPruneOp{
			In: op, K: k, Mode: mode, Ranker: ranker, KorBound: korBound,
			SortedInput: sorted, Shared: shared, Cancel: cancel,
		}
		push(t)
		return t
	}

	push(src)
	if p.access == AccessTwigJoin {
		if units := m.RequiredConstraintUnits(); len(units) > 0 {
			push(&algebra.UnitFilterOp{In: op, Matcher: m, Units: units})
		}
	} else {
		push(&algebra.RequiredOp{In: op, Matcher: m})
	}

	// The distinguished node's tag, when it is a fixed name, is every
	// answer's: kor resolves its tag test against it once.
	korTag := p.distTag
	if korTag == "*" {
		korTag = ""
	}
	totalK := 0.0
	for _, kor := range kors {
		totalK += korMax(ix, kor, korTag, nil)
	}

	// vor sits right before the first operator that reads V. Under rank
	// K,V,S that is whatever follows the last kor: Algorithm 3 reads V
	// only among K-ties at kor-scorebound 0, so every prune and sort
	// ahead of that point decides on K alone (ModeK) and value elements
	// are located, read and keyed only for the answers the K cuts leave.
	// Every other order reads V from its first prune on.
	hasVOR := prof != nil && len(prof.VORs) > 0
	early := mode // the mode of the prunes and sorts ahead of vor
	if hasVOR && mode == algebra.ModeKVS {
		early = algebra.ModeK
	}
	pushing := strat == Push

	// Score-contributing keyword joins, required first.
	for _, u := range ftUnits {
		push(&algebra.FTOp{In: op, Matcher: m, Unit: u})
	}
	push(&algebra.BonusOp{In: op, Matcher: m, Units: m.OptionalBonusUnits()})
	if hasVOR && early == mode {
		push(algebra.NewVOROp(op, ix, prof))
	}

	remK := totalK
	for i, kor := range kors {
		last := i == len(kors)-1
		if pushing {
			// Prune right before each kor with the sum of the remaining
			// KORs' maximal scores (Section 6.3's Plan 2 description).
			prune(early, remK, false)
		}
		push(algebra.NewKOROp(op, ix, kor, korTag))
		remK -= korMax(ix, kor, korTag, nil)
		if remK < 1e-12 {
			remK = 0 // absorb floating-point residue: the bound is conceptually exact
		}
		if last && early != mode {
			// K is final. Pushed all the way, one K-only prune at
			// kor-scorebound 0 stands between the last kor and vor: k
			// answers with strictly larger K outrank whatever it drops.
			if pushing {
				kFinal = prune(early, remK, false)
			}
			push(algebra.NewVOROp(op, ix, prof))
			early = mode
		}
		switch strat {
		case InterleaveNoSort:
			prune(early, remK, false)
		case InterleaveSort:
			push(&algebra.SortOp{In: op, Ranker: ranker, Mode: early, Batch: p.batch})
			prune(early, remK, true)
		}
		if pushing && last {
			// Pushed all the way also means pruning after the last KOR
			// (kor-scorebound 0), so the final sort sees a k-sized stream
			// instead of every candidate.
			vks = prune(mode, remK, false)
			kFinal = cmp.Or(kFinal, vks) // the K-final one, unless vor's went first
		}
	}

	// Final ranking: parametric sort + topkPrune (Fig. 4's plan tops). A
	// score-free stream is in rank order as the source emits it.
	if !p.scoreFree {
		push(&algebra.SortOp{In: op, Ranker: ranker, Mode: mode, Batch: p.batch})
	}
	final = prune(mode, 0, true)

	return ops, final, kFinal, vks
}

// korMax is MaxKORScore on answers tagged tag ("" when the tags vary):
// 0 for a rule that cannot score there. It is the one source of the
// kor-scorebounds and the tier and document bounds.
func korMax(ix *index.Index, kor *profile.KOR, tag string, held func(phrase string) bool) float64 {
	if !algebra.KORScores(kor, tag) {
		return 0
	}
	return algebra.MaxKORScore(ix, kor, held)
}

// kBound sums korMax over kors in KOROp's order, by monotone rounding
// never below the K of an answer held admits; +Inf (no bound) where a
// rule scoring on tag weighs other than finite and ≥ 0.
func kBound(ix *index.Index, kors []*profile.KOR, tag string, held func(phrase string) bool) float64 {
	k := 0.0
	for _, kor := range kors {
		if w := kor.EffectiveWeight(); algebra.KORScores(kor, tag) && !(w >= 0 && w <= math.MaxFloat64) {
			return math.Inf(1)
		}
		k += korMax(ix, kor, tag, held)
	}
	return k
}

// KBound is the largest K a plan for q under prof gives an answer over
// ix, known before any build; the corpus fan-out orders and skips
// documents by it. +Inf: no bound (a rank other than K,V,S, or a weight
// outside kBound's scope).
func KBound(ix *index.Index, q *tpq.Query, prof *profile.Profile) float64 {
	if algebra.ModeForProfile(prof) != algebra.ModeKVS {
		return math.Inf(1)
	}
	return kBound(ix, prof.SortKORsByPriority(), strings.TrimSuffix(q.Nodes[q.Dist].Tag, "*"), nil) // a wildcard tag is ""
}

// maxChainOps bounds the operators buildChain compiles for a query with
// nft keyword joins under a profile with nkor KORs, whatever the
// strategy: source, filter, bonus, vor, the final sort and prune, the
// K-only and the full prune after the last kor; a join per keyword; an
// operator, a sort and a prune per kor. The timing wrappers of a chain
// are one allocation of this size.
func maxChainOps(nft, nkor int) int { return 8 + nft + 3*nkor }

// Execute runs the plan to completion and returns the top-k answers,
// best first. With Options.Parallelism != 1 (and enough candidates) the
// access path is partitioned across workers; the answer list is
// identical to the sequential path's at every parallelism level. It
// runs under no context — to completion; cancellable callers use
// ExecuteContext.
func (p *Plan) Execute() []algebra.Answer {
	// Every layer below (CancelCheck, ContextErr, the twig stop probes)
	// treats a nil context as "never cancelled", so none is fabricated
	// mid-stack and the error can only be nil.
	answers, _ := p.ExecuteContext(nil)
	return answers
}

// ExecuteContext runs the plan under ctx and returns the top-k answers,
// best first. When ctx is cancelled or its deadline expires, the scan
// and prune loops abort cooperatively (within one batch of candidates)
// and ExecuteContext returns ctx's error with a nil answer list — never
// a silently truncated top k.
func (p *Plan) ExecuteContext(ctx context.Context) ([]algebra.Answer, error) {
	if err := algebra.ContextErr(ctx); err != nil {
		return nil, err
	}
	if err := p.ensureSource(ctx); err != nil {
		return nil, err
	}
	if w := p.effectiveWorkers(); w > 1 {
		return p.executeParallel(ctx, w)
	}
	p.parStats = nil
	p.lastWorkers = 1
	p.cancel.Reset(ctx)
	algebra.Run(p.root, p.batch)
	if err := algebra.ContextErr(ctx); err != nil {
		return nil, err
	}
	return p.final.TopK(), nil
}

// ensureSource runs the twigjoin access path (no-op for scans; a tiered
// plan's joins run inside its source) on every execution, so timings
// account for the access path's full per-query cost, as the scan path
// re-scans its tag list. The join aborts when ctx is cancelled.
func (p *Plan) ensureSource(ctx context.Context) error {
	if p.eval == nil {
		return nil
	}
	p.joinStats, p.joinNS = &JoinStats{}, 0
	if ts := p.tiers; ts != nil {
		ts.ctx, ts.next, p.src.IDs = ctx, 0, nil
		return nil
	}
	ids, err := p.join(ctx, nil, p.joinLimit(), nil)
	p.src.IDs = ids
	return err
}

// join runs the twig join over members (nil: the whole stream) into out
// and folds its counters and wall time into the plan's.
func (p *Plan) join(ctx context.Context, members []xmldoc.NodeID, limit int, out []xmldoc.NodeID) ([]xmldoc.NodeID, error) {
	start := time.Now()
	ids, stats, err := p.eval.Join(ctx, members, limit, out)
	p.joinNS += time.Since(start).Nanoseconds()
	p.joinStats.Add(stats)
	return ids, err
}

// Workers reports how many workers the most recent Execute used
// (0 before the first Execute).
func (p *Plan) Workers() int { return p.lastWorkers }

// Parallelism reports the plan's resolved parallelism — the worker
// count ResolveParallelism chose from the request and the document
// size, before the Execute-time candidate-count scale-down. This is
// the value the serving layer surfaces to clients and keys its result
// cache on.
func (p *Plan) Parallelism() int { return p.par }

// Release hands the sequential chain's pooled scratch buffers back
// (parallel partitions release their own as they finish). The plan
// stays executable — operators re-acquire on the next Open — but call
// it only after copying out whatever answers you need. Safe to call
// repeatedly.
func (p *Plan) Release() {
	algebra.ReleaseChainScratch(p.ops)
	p.m.ReleaseScratch()
}

// TiersVisited is the tiers the last Execute took off its list (0: untiered).
func (p *Plan) TiersVisited() int {
	if p.tiers == nil {
		return 0
	}
	return p.tiers.next
}

// Access reports the resolved access path (never AccessAuto).
func (p *Plan) Access() AccessPath { return p.access }

// JoinStats returns the twigjoin counters of the most recent Execute
// (summed over its tiers), or nil on the scan path or before one.
func (p *Plan) JoinStats() *JoinStats { return p.joinStats }

// Stats returns per-operator counters, bottom-up. After a parallel
// Execute the counters — answer counts and, with Options.Timing, wall
// time — are the position-wise sums over all workers (worker chains
// are structurally identical). Note that summed WallNS is aggregate
// busy time across workers, not elapsed wall clock: it can exceed the
// execution's elapsed time by up to the worker count.
//
// On the twigjoin access path a synthetic leading entry reports the
// join itself, summed over a tiered plan's tiers: In is the elements
// the joins decided (JoinStats.Read: the whole tag list unless a
// score-free plan stopped it early; a tiered plan's members), Out the
// candidates they emitted, WallNS their wall time. With Options.Timing
// every chain operator's inclusive WallNS holds the join time — a
// tiered plan's joins run inside its timed source, others are added.
func (p *Plan) Stats() []algebra.OpStats {
	chain := p.chainStats()
	if p.joinStats == nil {
		return chain
	}
	join := algebra.OpStats{
		Name:   "twigjoin(" + p.distTag + ")",
		In:     p.joinStats.Read,
		Out:    p.joinStats.Emitted,
		Pruned: p.joinStats.Read - p.joinStats.Emitted,
		WallNS: p.joinNS,
	}
	if !p.opts.Timing {
		join.WallNS = 0
	} else if p.tiers == nil {
		for i := range chain {
			chain[i].WallNS += p.joinNS
		}
	}
	return append([]algebra.OpStats{join}, chain...)
}

// chainStats returns the operator chain's counters without the access
// path's synthetic entry.
func (p *Plan) chainStats() []algebra.OpStats {
	if p.parStats != nil {
		out := make([]algebra.OpStats, len(p.parStats))
		copy(out, p.parStats)
		return out
	}
	out := make([]algebra.OpStats, len(p.ops))
	for i, op := range p.ops {
		out[i] = op.Stats()
	}
	return out
}

// TotalPruned sums the answers the chain's topkPrune operators dropped —
// the figure /metrics reports as the topkPrune pruned series. Filter
// drops (required, unitfilter, ftjoin) are not prunes: the join rejects
// structurally what the scan's RequiredOp drops, so an untiered plan
// prunes the same on each path. A tiered plan drops only what its
// visited tiers feed, a subset of what it drops on the scan path.
func (p *Plan) TotalPruned() int {
	t := 0
	for _, s := range p.chainStats() {
		if s.Kind() == "topkPrune" {
			t += s.Pruned
		}
	}
	return t
}

// String renders the plan shape for diagnostics.
func (p *Plan) String() string {
	// Go through Stats(): after a parallel execution the sequential chain
	// was never opened (its operator names are empty), but the merged
	// worker stats carry the names.
	stats := p.Stats()
	names := make([]string, len(stats))
	for i, st := range stats {
		names[i] = st.Name
	}
	return strings.Join(names, " -> ")
}
