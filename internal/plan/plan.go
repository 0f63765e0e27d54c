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
	"context"
	"fmt"
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
	// best one here from two KORs on (EXPERIMENTS.md Fig. 7, 10 MB
	// document, ms at 1–4 KORs: PtpkP 3.58 2.14 1.99 1.95, NS-ILtpkP
	// 2.97 3.02 2.73 2.43, NtpkP 5.54 6.00 6.61 6.39; at 1 KOR the
	// non-sorted interleave ties it or leads by up to 0.6 ms).
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

	par        int  // resolved parallelism (ResolveParallelism)
	parAuto    bool // par came from auto-resolution (load scale-down applies)
	m          *algebra.Matcher
	access     AccessPath          // resolved access path (never AccessAuto)
	eval       *twig.Evaluator     // twigjoin access path; nil for scan
	src        *algebra.ListScanOp // the sequential chain's source operator
	sourceIDs  []xmldoc.NodeID     // the access path's candidate list
	sourceName string              // display name of the source operator
	distTag    string

	// Last twigjoin execution, for the synthetic source OpStats entry
	// and the serving layer's counters.
	joinStats *twig.JoinStats
	joinNS    int64
	joinIn    int

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
	if p.access == AccessTwigJoin {
		// The join itself runs lazily at Execute time (ensureSource), so
		// execution timings honestly include the access path's work; the
		// evaluator memoizes the query decomposition and the dataguide
		// match so re-executions pay only for the streaming passes.
		p.eval = twig.NewEvaluator(ix, q)
		p.joinIn = ix.TagCount(p.distTag)
		p.sourceName = "twigscan(" + p.distTag + ")"
	} else {
		p.sourceIDs = ix.Elements(p.distTag)
		p.sourceName = "scan(" + p.distTag + ")"
	}
	p.src = &algebra.ListScanOp{Name: p.sourceName, IDs: p.sourceIDs}
	// Compiling the chain doubles as the cache pre-warm pass: resolving
	// the phrase lists and computing the kor-scorebounds (MaxKORScore)
	// populate the index's phrase/df/max-score caches for every
	// (tag, phrase) pair the query and profile can probe, so the
	// per-worker rebuilds of a parallel Execute hit read-only snapshots.
	p.cancel = algebra.NewCancelCheck(nil)
	p.ops, p.final, p.m = p.buildChain(p.src, nil, p.cancel)
	p.root = p.ops[len(p.ops)-1]
	return p, nil
}

// buildChain compiles the operator pipeline on top of the given source
// operator. Every call creates its own Matcher (matchers reuse scratch
// buffers and are not safe for concurrent use); shared is non-nil only
// for the workers of a parallel Execute, which exchange their top-k
// thresholds through it. cancel is the chain's cancellation probe,
// threaded into the scan and prune loops, which probe it once per batch
// (the places a cooperative abort must interrupt; see DESIGN.md §10).
func (p *Plan) buildChain(src *algebra.ListScanOp, shared *algebra.SharedBound, cancel *algebra.CancelCheck) ([]algebra.Operator, *algebra.TopKPruneOp, *algebra.Matcher) {
	ix, q, prof, k := p.ix, p.q, p.prof, p.K
	strat, mode, ranker := p.Strategy, p.Mode, p.ranker
	m := algebra.NewMatcher(ix, q)
	src.Cancel = cancel
	ftUnits := m.FTUnits()
	var kors []*profile.KOR
	if prof != nil {
		kors = prof.SortKORsByPriority()
	}

	maxOps := maxChainOps(len(ftUnits), len(kors))
	var timer *algebra.Timer
	if p.opts.Timing {
		timer = algebra.NewTimer(maxOps)
	}
	ops := make([]algebra.Operator, 0, maxOps)
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

	totalK := 0.0
	for _, kor := range kors {
		totalK += algebra.MaxKORScore(ix, kor)
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

	// The distinguished node's tag, when it is a fixed name, is every
	// answer's: kor resolves its tag test against it once.
	korTag := p.distTag
	if korTag == "*" {
		korTag = ""
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
		remK -= algebra.MaxKORScore(ix, kor)
		if remK < 1e-12 {
			remK = 0 // absorb floating-point residue: the bound is conceptually exact
		}
		if last && early != mode {
			// K is final. Pushed all the way, one K-only prune at
			// kor-scorebound 0 stands between the last kor and vor: k
			// answers with strictly larger K outrank whatever it drops.
			if pushing {
				prune(early, remK, false)
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
			prune(mode, remK, false)
		}
	}

	// Final ranking: parametric sort + topkPrune (Fig. 4's plan tops).
	push(&algebra.SortOp{In: op, Ranker: ranker, Mode: mode, Batch: p.batch})
	final := prune(mode, 0, true)

	return ops, final, m
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

// ensureSource runs the twigjoin access path (no-op for scans). It
// runs on every execution — not once per plan — so Execute timings and
// benchmarks account for the full per-query cost of the access path,
// exactly as the scan path re-scans its tag list each time. The join
// aborts cooperatively when ctx is cancelled.
func (p *Plan) ensureSource(ctx context.Context) error {
	if p.eval == nil {
		return nil
	}
	start := time.Now()
	ids, stats, err := p.eval.Distinguished(ctx)
	if err != nil {
		return err
	}
	p.sourceIDs = ids
	p.src.IDs = ids
	p.joinStats = &stats
	p.joinNS = time.Since(start).Nanoseconds()
	return nil
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

// Access reports the resolved access path (never AccessAuto).
func (p *Plan) Access() AccessPath { return p.access }

// JoinStats returns the twigjoin counters of the most recent Execute,
// or nil when the plan uses the scan access path (or has not executed).
func (p *Plan) JoinStats() *JoinStats { return p.joinStats }

// Stats returns per-operator counters, bottom-up. After a parallel
// Execute the counters — answer counts and, with Options.Timing, wall
// time — are the position-wise sums over all workers (worker chains
// are structurally identical). Note that summed WallNS is aggregate
// busy time across workers, not elapsed wall clock: it can exceed the
// execution's elapsed time by up to the worker count.
//
// On the twigjoin access path a synthetic leading entry reports the
// join itself: In is the distinguished tag's list size, Out the
// candidates the join emitted, WallNS the join's wall time. With
// Options.Timing the join time is also folded into every chain
// operator's inclusive WallNS, preserving the self-time-by-adjacent-
// difference convention (the join is upstream of the whole chain).
func (p *Plan) Stats() []algebra.OpStats {
	chain := p.chainStats()
	if p.joinStats == nil {
		return chain
	}
	join := algebra.OpStats{
		Name:   "twigjoin(" + p.distTag + ")",
		In:     p.joinIn,
		Out:    len(p.sourceIDs),
		Pruned: p.joinIn - len(p.sourceIDs),
		WallNS: p.joinNS,
	}
	if p.opts.Timing {
		for i := range chain {
			chain[i].WallNS += p.joinNS
		}
	} else {
		join.WallNS = 0
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

// TotalPruned sums answers dropped by the chain's prune operators. The
// twigjoin access path's structural prunes are intentionally excluded —
// they are candidates that never entered the pipeline (the scan path
// never counted the RequiredOp's structural rejects here either);
// JoinStats reports them.
func (p *Plan) TotalPruned() int {
	t := 0
	for _, s := range p.chainStats() {
		t += s.Pruned
	}
	return t
}

// String renders the plan shape for diagnostics.
func (p *Plan) String() string {
	// Go through Stats(): after a parallel execution the sequential chain
	// was never opened (its operator names are empty), but the merged
	// worker stats carry the names.
	s := ""
	for i, st := range p.Stats() {
		if i > 0 {
			s += " -> "
		}
		s += st.Name
	}
	return s
}
