// Package engine is PIMENTO's personalization driver. Personalize runs
// the static analyses of Section 5 (scoping-rule conflicts, ordering-rule
// ambiguity) and either rejects the profile or encodes the query flock
// into a single query (Section 6.2), memoized when handed an
// AnalysisCache. Engine.SearchContext is that step plus one document's
// plan: build, execute with OR-aware top-k pruning, materialize, report
// per-operator statistics; the corpus fan-out shares the first step.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/algebra"
	"repro/internal/analysis"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// Engine answers personalized queries over one indexed document.
type Engine struct {
	doc *xmldoc.Document
	ix  *index.Index

	fpOnce sync.Once
	fp     string

	// ac, when set via UseAnalysisCache, memoizes Personalize so repeated
	// requests with the same profile skip re-running the Section 5 checks
	// and flock encoding; nil analyzes every request afresh.
	ac *AnalysisCache
}

// UseAnalysisCache attaches a (possibly shared) analysis cache; Search
// then reuses memoized ambiguity/conflict verdicts and flock encodings
// instead of recomputing them per request. Passing nil detaches.
func (e *Engine) UseAnalysisCache(c *AnalysisCache) { e.ac = c }

// New indexes doc under the given text pipeline and returns an engine.
func New(doc *xmldoc.Document, pipe text.Pipeline) *Engine {
	return &Engine{doc: doc, ix: index.Build(doc, pipe)}
}

// FromParts wraps an already-built (document, index) pair without
// re-indexing — the constructor the serving layer uses to put an engine
// on top of a corpus entry.
func FromParts(doc *xmldoc.Document, ix *index.Index) *Engine {
	return &Engine{doc: doc, ix: ix}
}

// Document returns the engine's document.
func (e *Engine) Document() *xmldoc.Document { return e.doc }

// Index returns the engine's index.
func (e *Engine) Index() *index.Index { return e.ix }

// Request is one personalized search.
type Request struct {
	Query   *tpq.Query
	Profile *profile.Profile // nil disables personalization
	// K is the result size; 0 defaults to 10, negative values are
	// rejected (an explicitly negative K is a caller bug, not a request
	// for the default).
	K int
	// Strategy selects the physical plan; defaults to Push (the paper's
	// winner).
	Strategy plan.Strategy
	// Access and Parallelism are plan.Options.AccessPath and
	// plan.Options.Parallelism. Their zero values are the planner's own
	// choice, the only one the serving layer and the library make; tests
	// and the benchmark's scan oracle pin them. The ranked answers are
	// identical at every setting.
	Access      plan.AccessPath
	Parallelism int
	// Budget, when non-nil, gates the extra goroutines of parallel plan
	// execution (see plan.Options.Budget). The serving layer passes the
	// scheduler's shared budget; library callers leave it nil.
	Budget plan.WorkerBudget
	// Thesaurus, when non-nil, expands required full-text predicates
	// with optional synonym predicates at ThesaurusWeight (default 0.5).
	Thesaurus       *text.Thesaurus
	ThesaurusWeight float64
	// Timing enables per-operator wall-time collection (OpStats.WallNS)
	// at the cost of two clock reads per operator pull. The serving
	// layer sets it so /metrics and the slow-query log can attribute
	// time inside the plan; library callers default to the bare chain.
	Timing bool
}

// defaultK is the result size of a request that leaves K zero.
const defaultK = 10

// Validate is the entry check every search shares (one document, the
// corpus fan-out, the cache key, the serving layer): it refuses a nil
// query and a negative K and returns the effective result size.
func (req *Request) Validate() (k int, err error) {
	if req.Query == nil {
		return 0, errors.New("engine: nil query")
	}
	if req.K < 0 {
		return 0, fmt.Errorf("engine: negative K %d (use 0 or omit K for the default of %d)", req.K, defaultK)
	}
	if req.K == 0 {
		return defaultK, nil
	}
	return req.K, nil
}

// Result is one ranked answer.
type Result struct {
	Node    xmldoc.NodeID
	Path    string
	S, K    float64
	Snippet string
}

// Response carries the answers plus everything the personalization
// pipeline decided along the way.
type Response struct {
	Results      []Result
	EncodedQuery *tpq.Query
	AppliedSRs   []string
	PlanShape    string
	Stats        []algebra.OpStats
	TotalPruned  int
	Workers      int // plan-execution workers (1 = sequential)
	// Parallelism is the *resolved* parallelism (plan.ResolveParallelism
	// applied to the request and the document) — what the request was
	// granted, as opposed to what it asked for. Workers can be lower
	// when the candidate list was too small to use the grant.
	Parallelism int
	// Access is the resolved access path (never AccessAuto) and TwigJoin
	// the join's counters — nil on the scan path.
	Access   plan.AccessPath
	TwigJoin *plan.JoinStats
	Elapsed  time.Duration
	// Trace is the pipeline trace: one span per personalization stage
	// (analyze → rewrite → build → execute → rank), offsets relative to
	// the start of SearchContext. Always recorded — five clock pairs
	// per request are noise next to plan execution.
	Trace []metrics.Span
	// Cached is true when this response was served from a result cache
	// (internal/cache) instead of a fresh execution.
	Cached bool
}

// Search personalizes and evaluates the request. It fails with a
// *Rejection when the profile's value-based ORs are ambiguous (Section
// 5.2 requires the user to resolve ambiguity with priorities before the
// profile is enforced) or when its scoping rules have unresolvable
// conflict cycles.
func (e *Engine) Search(req Request) (*Response, error) {
	//pimento:allow ctxbg context-free public entry point whose contract is run-to-completion; cancellable callers use SearchContext
	return e.SearchContext(context.Background(), req)
}

// SearchContext is Search under a context: when ctx is cancelled or its
// deadline expires, plan execution aborts cooperatively (scan, match and
// prune loops all carry checkpoints) and SearchContext returns ctx's
// error — never a silently truncated top k.
func (e *Engine) SearchContext(ctx context.Context, req Request) (*Response, error) {
	k, err := req.Validate()
	if err != nil {
		return nil, err
	}

	start := time.Now()
	tr := metrics.NewTrace()
	q, applied := req.Query, []string(nil)
	if req.Profile != nil {
		endAnalyze := tr.Start("analyze")
		q, applied, err = Personalize(ctx, e.ac, req.Profile, req.Query)
		endAnalyze()
		if err != nil {
			return nil, err
		}
	}
	if req.Thesaurus != nil && req.Thesaurus.Len() > 0 {
		endRewrite := tr.Start("rewrite")
		w := req.ThesaurusWeight
		if w == 0 {
			w = 0.5
		}
		q = q.ExpandPhrases(req.Thesaurus.Synonyms, w)
		endRewrite()
	}

	endBuild := tr.Start("build")
	p, err := plan.BuildWith(e.ix, q, req.Profile, k, plan.Options{
		Strategy:    req.Strategy, // plan.Default resolves to Push inside Build
		AccessPath:  req.Access,
		Parallelism: req.Parallelism,
		Budget:      req.Budget,
		Timing:      req.Timing,
	})
	endBuild()
	if err != nil {
		return nil, err
	}
	// Hand the chain's pooled scratch back once the response is
	// materialized: under the worker-pool scheduler the next request on
	// this worker reuses the same buffers instead of reallocating.
	defer p.Release()
	endExecute := tr.Start("execute")
	answers, err := p.ExecuteContext(ctx)
	endExecute()
	if err != nil {
		return nil, err
	}

	endRank := tr.Start("rank")
	stats := p.Stats()
	resp := &Response{
		EncodedQuery: q,
		AppliedSRs:   applied,
		PlanShape:    plan.Shape(stats),
		Stats:        stats,
		TotalPruned:  plan.Pruned(stats),
		Workers:      p.Workers(),
		Parallelism:  p.Parallelism(),
		Access:       p.Access(),
		TwigJoin:     p.JoinStats(),
	}
	resp.Results = e.materialize(answers)
	endRank()
	resp.Trace = tr.Spans()
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// ResolvedParallelism reports the worker count the request resolves to
// against this engine's document — plan.ResolveParallelism on the
// request's Parallelism and the document size. The
// serving layer folds this into its cache key (a cached response's
// Workers/Stats metadata depends on it) and surfaces it to clients.
func (e *Engine) ResolvedParallelism(req *Request) int {
	return plan.ResolveParallelism(req.Parallelism, e.doc.Len())
}

func (e *Engine) materialize(answers []algebra.Answer) []Result {
	out := make([]Result, len(answers))
	for i, a := range answers {
		out[i] = Result{
			Node:    a.Node,
			Path:    e.doc.Path(a.Node),
			S:       a.S,
			K:       a.K,
			Snippet: snippet(e.doc.TextContent(a.Node), 90),
		}
	}
	return out
}

func snippet(s string, max int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= max {
		return s
	}
	// Back the cut up to a rune boundary: s[:max] may split a multi-byte
	// UTF-8 sequence and emit an invalid string.
	for max > 0 && !utf8.RuneStart(s[max]) {
		max--
	}
	cut := s[:max]
	if i := strings.LastIndexByte(cut, ' '); i > max/2 {
		cut = cut[:i]
	}
	return cut + "…"
}

// ProfileAnalysis is AnalyzeProfile's report.
type ProfileAnalysis struct {
	Conflicts   *analysis.ConflictReport
	ConflictErr error
	Ambiguity   analysis.AmbiguityReport
	Flock       []*tpq.Query
	Applied     []string
	// Trace is one "analyze" span around the verdict lookups, the stage
	// name /search records for the same work.
	Trace []metrics.Span
}

// AnalyzeProfile reports the Section 5 static analyses for a profile
// against a query without executing anything — the "explain" entry
// point: rule applicability, conflicts, the application order, the
// resulting literal flock, and VOR ambiguity. It reads the verdicts
// Personalize gates on, through ac (nil computes them un-memoized), so
// an explained profile and a searched one are analyzed once. The only
// error is ctx expiring during another caller's fill.
func AnalyzeProfile(ctx context.Context, ac *AnalysisCache, prof *profile.Profile, q *tpq.Query) (*ProfileAnalysis, error) {
	tr := metrics.NewTrace()
	end := tr.Start("analyze")
	pv, err := ac.ProfileVerdict(ctx, prof)
	var qv *QueryVerdict
	if err == nil {
		qv, err = ac.QueryVerdict(ctx, prof, q)
	}
	end()
	if err != nil {
		return nil, err
	}
	return &ProfileAnalysis{
		Conflicts:   qv.Conflicts,
		ConflictErr: qv.ConflictErr,
		Ambiguity:   pv.Ambiguity,
		Flock:       qv.Flock,
		Applied:     qv.FlockApplied,
		Trace:       tr.Spans(),
	}, nil
}
