// Package server is PIMENTO's query serving layer: an HTTP JSON API
// over a registry of indexed documents, with per-request deadlines
// plumbed down into plan-operator loops, an LRU result cache with
// single-flight admission, and one metrics registry that every route
// and handler counts into — exposed as /metrics and, as a JSON view of
// the same series, /statsz.
//
// Endpoints:
//
//	POST   /search       — personalized search over one document or a
//	                       fan-out across the whole registry (doc "" or "*")
//	POST   /explain      — the Section 5 static analyses for (query, profile)
//	PUT    /docs/{name}  — add or replace a document (live corpus mutation)
//	DELETE /docs/{name}  — remove a document
//	GET    /docs         — list documents + corpus generation
//	GET    /watch        — long-poll feed of corpus mutations
//	POST   /lint         — vet diagnostics for a profile (and query)
//	*      /profiles...  — the named-profile registry (profiles.go)
//	GET    /healthz      — liveness plus document count
//	GET    /metrics      — Prometheus exposition of the registry
//	GET    /statsz       — the same counters as JSON, plus the cache,
//	                       analysis-cache and scheduler stats blocks
//
// See DESIGN.md §10 for the cache key anatomy, the cancellation
// checkpoints and the single-flight semantics, and §14 for the
// mutation protocol and generation-stamped invalidation, §11 for the
// metrics schema.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// maxBodyBytes bounds a request body; anything larger is a 4xx, not an
// allocation.
const maxBodyBytes = 1 << 20

// analysisCacheEntries is the capacity of the analysis-verdict cache
// searches, /lint and profile registration share. A constant, not an
// option: no workload at hand wants a different value.
const analysisCacheEntries = 256

// Config tunes a Server.
type Config struct {
	// Pipeline is the text pipeline documents are indexed under.
	Pipeline text.Pipeline
	// CacheSize is the result cache capacity in entries (default 512).
	CacheSize int
	// DefaultTimeout bounds every request that does not carry its own
	// timeout_ms; 0 (or negative) means no server-side deadline (client
	// disconnects and the request's own timeout_ms still apply).
	DefaultTimeout time.Duration
	// MaxK caps the per-request result size (default 10000) so a
	// hostile K cannot force giant allocations.
	MaxK int
	// SlowQueryThreshold enables the slow-query log: any fresh search
	// execution at least this slow is logged asynchronously with its
	// query, plan shape and per-operator stats. 0 disables the log (and
	// its goroutine).
	SlowQueryThreshold time.Duration
	// SlowQueryLog overrides the slow-query sink (default: the standard
	// logger). Tests inject a capture function here.
	SlowQueryLog func(format string, args ...any)
	// PoolWorkers sizes the admission scheduler: at most this many
	// searches execute concurrently, each sequential unless the document
	// is large enough for plan.ResolveParallelism to grant workers. 0
	// (or any non-positive value) means GOMAXPROCS.
	PoolWorkers int
	// PoolQueue is the admission waiting-room capacity: requests beyond
	// it are shed with 503 + Retry-After. 0 means 64×PoolWorkers;
	// negative means no waiting room.
	PoolQueue int
	// PoolMaxWait bounds how long a request may sit queued before being
	// shed with 429 + Retry-After. 0 disables the bound (the request's
	// own deadline still applies while it waits).
	PoolMaxWait time.Duration
	// MaxDocBytes bounds a PUT /docs/{name} body (default 64 MiB);
	// larger uploads are rejected with 413 before parsing.
	MaxDocBytes int64
	// WatchBuffer is how many recent mutations GET /watch retains for
	// since-cursor replay (default 256); clients whose cursor falls off
	// the buffer are told to resync.
	WatchBuffer int
}

// Server serves personalized XML search over a registry of documents.
type Server struct {
	cfg Config
	reg *corpus.Corpus

	// mutMu serializes the commit half of every mutation (snapshot swap
	// + cache invalidation + watch publish) so /watch sees generations
	// in order and an invalidation can never interleave into another
	// mutation's publish. Searches never take it: they read one atomic
	// corpus snapshot instead.
	mutMu sync.Mutex
	watch *watchHub

	cache    *ResultCache
	analysis *engine.AnalysisCache
	// profiles is the named-profile store: fingerprint-deduplicated,
	// vetted at registration through the shared analysis cache.
	profiles *registry.Registry
	mux      *http.ServeMux
	// pool is the admission scheduler every executing search passes.
	pool *sched.Pool

	metrics *serverMetrics
	slowlog *slowQueryLogger // nil unless Config.SlowQueryThreshold > 0
}

// New returns an empty server; add documents with Add/AddXML.
func New(cfg Config) *Server {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 512
	}
	if cfg.MaxK == 0 {
		cfg.MaxK = 10000
	}
	if cfg.MaxDocBytes == 0 {
		cfg.MaxDocBytes = 64 << 20
	}
	s := &Server{
		cfg:      cfg,
		reg:      corpus.New(cfg.Pipeline),
		watch:    newWatchHub(cfg.WatchBuffer),
		cache:    NewResultCache(cfg.CacheSize),
		analysis: engine.NewAnalysisCache(analysisCacheEntries),
		metrics:  newServerMetrics(),
	}
	// Registration vets through the shared analysis cache: the verdict
	// filled at PUT /profiles/{name} is the one /search and /lint hit,
	// so N names over one body cost exactly one analysis fill.
	s.profiles = registry.New(func(ctx context.Context, p *profile.Profile) ([]analysis.Diagnostic, error) {
		pv, err := s.analysis.ProfileVerdict(ctx, p)
		if err != nil {
			return nil, err
		}
		return pv.Diags, nil
	})
	s.pool = sched.New(sched.Config{
		Workers: cfg.PoolWorkers,
		Queue:   cfg.PoolQueue,
		MaxWait: cfg.PoolMaxWait,
		ObserveWait: func(d time.Duration) {
			s.metrics.schedQueueWait.Observe(d.Seconds())
		},
	})
	// One budget for every extra goroutine: registry fan-out helpers
	// and parallel plan partitions draw from the same allowance, so
	// their product can never exceed one machine's worth. And one
	// analysis cache: fan-outs pass the same memoized gate.
	s.reg.SetBudget(s.pool.Budget())
	s.reg.UseAnalysisCache(s.analysis)
	if cfg.SlowQueryThreshold > 0 {
		s.slowlog = newSlowQueryLogger(cfg.SlowQueryThreshold, cfg.SlowQueryLog,
			s.metrics.slowTotal, s.metrics.slowDropped)
	}
	s.mux = http.NewServeMux()
	s.route("POST /search", "search", s.handleSearch)
	s.route("POST /explain", "explain", s.handleExplain)
	s.route("POST /lint", "lint", s.handleLint)
	s.route("PUT /profiles/{name}", "profiles", s.handlePutProfile)
	s.route("GET /profiles/{name}", "profiles", s.handleGetProfile)
	s.route("DELETE /profiles/{name}", "profiles", s.handleDeleteProfile)
	s.route("GET /profiles", "profiles", s.handleListProfiles)
	s.route("PUT /docs/{name}", "docs", s.handlePutDoc)
	s.route("DELETE /docs/{name}", "docs", s.handleDeleteDoc)
	s.route("GET /docs", "docs", s.handleListDocs)
	s.route("GET /watch", "watch", s.handleWatch)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /statsz", "statsz", s.handleStatsz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	return s
}

// route registers h behind the bookkeeping every endpoint shares: the
// request counter, the in-flight gauge and the latency histogram of
// its endpoint label (one of endpointNames).
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		defer s.metrics.startRequest(endpoint)()
		h(w, r)
	})
}

// Close releases background resources (today: the slow-query logging
// goroutine). Safe to call more than once; the HTTP handler stays
// usable but slow queries are no longer logged.
func (s *Server) Close() {
	if s.slowlog != nil {
		s.slowlog.close()
	}
}

// Add indexes doc under name (replacing any previous document with
// that name). It is the library-side spelling of PUT /docs/{name}: the
// index and content fingerprint are built off-lock, the snapshot swap
// invalidates exactly the cached results that depended on the name,
// and /watch subscribers see the mutation.
func (s *Server) Add(name string, doc *xmldoc.Document) {
	s.applyPut(name, s.reg.Prepare(doc))
}

// AddXML parses src and adds it under name.
func (s *Server) AddXML(name, src string) error {
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		return fmt.Errorf("server: %s: %w", name, err)
	}
	s.Add(name, doc)
	return nil
}

// Docs returns the registered document names.
func (s *Server) Docs() []string { return s.reg.Snapshot().Names() }

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *ResultCache { return s.cache }

// Pool exposes the admission scheduler (for stats and tests).
func (s *Server) Pool() *sched.Pool { return s.pool }

// AnalysisCache exposes the shared analysis-verdict cache (for stats
// and tests).
func (s *Server) AnalysisCache() *engine.AnalysisCache { return s.analysis }

// Profiles exposes the named-profile registry (for stats and tests).
func (s *Server) Profiles() *registry.Registry { return s.profiles }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// serveHTTP is the mux behind the one check it cannot be told to make.
// ServeMux answers a path it would clean — "/docs/.", "/docs/..",
// "/docs/a//b", "/docs/x/." — with a 301 and an HTML body before any
// route runs; on the two name-addressed resources that is a client
// error like any other bad name: a JSON 400 that changes nothing.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.EscapedPath()
	docs, profiles := strings.HasPrefix(p, "/docs/"), strings.HasPrefix(p, "/profiles/")
	if !docs && !profiles {
		s.mux.ServeHTTP(w, r)
		return
	}
	if clean := path.Clean(p); p == clean || p == clean+"/" {
		s.mux.ServeHTTP(w, r)
		return
	}
	err := fmt.Errorf("invalid name in path %q: %q and %q segments and empty segments are not names", p, ".", "..")
	switch {
	case docs && (r.Method == http.MethodPut || r.Method == http.MethodDelete):
		defer s.metrics.startRequest("docs")()
		s.rejectMutation(w, strings.ToLower(r.Method), http.StatusBadRequest, "parse", err)
	case profiles && r.Method == http.MethodPut:
		defer s.metrics.startRequest("profiles")()
		s.rejectProfile(w, http.StatusBadRequest, "parse", err)
	default:
		s.writeError(w, http.StatusBadRequest, "parse", err)
	}
}

// --- request / response wire types ---

// SearchRequest is the /search body.
type SearchRequest struct {
	// Doc selects a registered document; "" or "*" fans the query out
	// across the whole registry.
	Doc string `json:"doc"`
	// Query is the tree-pattern query source; Keywords is the
	// content-only alternative (exactly one must be set).
	Query    string `json:"query"`
	Keywords string `json:"keywords"`
	// Profile is the profile DSL source ("" disables personalization).
	Profile string `json:"profile"`
	// ProfileName references a profile registered via
	// PUT /profiles/{name}; mutually exclusive with the inline Profile.
	// The resolved profile's *content* — not the name — feeds the
	// result-cache key, so two names over one body share cache entries
	// and a rename can never alias them.
	ProfileName string `json:"profile_name"`
	K           int    `json:"k"`
	// Strategy is the plan of Fig. 7: "" (push) | naive | interleave |
	// interleave-sort | push. It is the one execution choice a request
	// makes; the access path and the worker count are the planner's.
	Strategy string `json:"strategy"`
	// TimeoutMS bounds this request; it can only tighten the server's
	// DefaultTimeout, never extend it.
	TimeoutMS int `json:"timeout_ms"`
	// NoCache bypasses the result cache (the request neither reads nor
	// populates it).
	NoCache bool `json:"no_cache"`
}

// SearchResult is one ranked answer on the wire.
type SearchResult struct {
	Doc     string  `json:"doc,omitempty"`
	Node    uint32  `json:"node"`
	Path    string  `json:"path"`
	S       float64 `json:"s"`
	K       float64 `json:"k"`
	Snippet string  `json:"snippet,omitempty"`
}

// SearchBody is the cacheable portion of the /search payload: the
// result of an execution, independent of which request serves it. The
// cache stores its marshaled bytes, so repeated identical requests get
// a byte-identical result payload. ExecUS and Trace describe the
// execution that produced the results — on a cache hit they replay the
// leader's numbers, which is the truthful reading.
type SearchBody struct {
	Results    []SearchResult `json:"results"`
	K          int            `json:"k"`
	Strategy   string         `json:"strategy"`
	AppliedSRs []string       `json:"applied_srs,omitempty"`
	PlanShape  string         `json:"plan,omitempty"`
	Workers    int            `json:"workers,omitempty"`
	// Parallelism is the parallelism the planner granted the execution
	// (plan.ResolveParallelism). Fan-out searches report 1 (per-document
	// plans are sequential; the fan-out supplies the concurrency).
	Parallelism  int `json:"parallelism,omitempty"`
	TotalPruned  int `json:"total_pruned,omitempty"`
	DocsSearched int `json:"docs_searched"`
	// ExecUS is the wall time of the execution that produced these
	// results, in microseconds.
	ExecUS int64 `json:"exec_us"`
	// Trace is the pipeline trace of that execution (single-document
	// searches only).
	Trace []metrics.Span `json:"trace,omitempty"`
}

// SearchResponse is the full /search payload: the cacheable body plus
// two volatile per-request fields the handler splices onto the cached
// bytes at write time. ElapsedUS is *this request's* serve time — on a
// cache hit it is the (microsecond-scale) lookup cost, not the
// original execution's elapsed time, which lives in ExecUS. CacheAgeMS
// is how long ago the cached execution ran (0 on a miss or bypass).
// The X-Cache header (MISS / HIT / COALESCED) carries the outcome.
type SearchResponse struct {
	SearchBody
	ElapsedUS  int64 `json:"elapsed_us"`
	CacheAgeMS int64 `json:"cache_age_ms"`
}

// cachedSearch is the cache value: the marshaled SearchBody plus the
// store timestamp the handler needs to compute CacheAgeMS.
type cachedSearch struct {
	body     []byte
	storedAt time.Time
}

// spliceVolatile turns marshaled SearchBody bytes into a full
// SearchResponse payload by splicing the per-request fields before the
// closing brace. Splicing (rather than re-marshaling) keeps the cached
// portion byte-identical across requests.
func spliceVolatile(body []byte, elapsedUS, ageMS int64) []byte {
	out := make([]byte, 0, len(body)+48)
	out = append(out, body[:len(body)-1]...)
	out = append(out, fmt.Sprintf(`,"elapsed_us":%d,"cache_age_ms":%d}`, elapsedUS, ageMS)...)
	return out
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"` // parse | vet | not_found | timeout | canceled | overloaded | throttled | engine
}

// --- handlers ---

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var sreq SearchRequest
	if !s.decodeJSON(w, r, &sreq) {
		return
	}

	// One atomic snapshot load serves the whole request: existence
	// checks, cache-key fingerprints and execution all resolve against
	// it, so a corpus swap landing mid-request can neither mix
	// generations (a key from one snapshot filled by another's index)
	// nor tear a fan-out (every per-document read sees one view).
	snap := s.reg.Snapshot()

	req, entry, status, err := s.buildEngineRequest(snap, &sreq)
	if err != nil {
		kind := "parse"
		if status == http.StatusNotFound {
			kind = "not_found"
		}
		s.writeError(w, status, kind, err)
		return
	}

	ctx, cancel := s.requestContext(r, sreq.TimeoutMS)
	defer cancel()

	fill := func() (any, error) { return s.execute(ctx, snap, entry, &sreq, req) }

	var payload any
	outcome := Miss
	if sreq.NoCache {
		// Bypass, not a miss: the cache is neither consulted nor filled,
		// so no X-Cache header is set.
		payload, err = fill()
	} else {
		key, tags := s.cacheKey(snap, entry, req)
		payload, outcome, err = s.cache.DoTagged(ctx, key, tags, fill)
		if err == nil {
			w.Header().Set("X-Cache", strings.ToUpper(outcome.String()))
		}
	}
	if err != nil {
		s.writeSearchError(w, err)
		return
	}

	// Splice the per-request fields onto the cached body: elapsed_us is
	// this request's serve time (a past bug replayed the leader's
	// execution time on HITs — regression: TestCacheHitElapsed), and
	// cache_age_ms says how stale a hit is.
	cs := payload.(*cachedSearch)
	var ageMS int64
	if outcome == Hit {
		ageMS = time.Since(cs.storedAt).Milliseconds()
	}
	out := spliceVolatile(cs.body, time.Since(start).Microseconds(), ageMS)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// buildEngineRequest validates and compiles the wire request into an
// engine request and resolves its target against the caller's snapshot,
// once: entry is the document to search, nil for a fan-out. On error it
// returns the HTTP status to use.
func (s *Server) buildEngineRequest(snap *corpus.Snapshot, sreq *SearchRequest) (engine.Request, *corpus.Entry, int, error) {
	var req engine.Request
	fanout := sreq.Doc == "" || sreq.Doc == "*" // the whole registry
	if (sreq.Query == "") == (sreq.Keywords == "") {
		return req, nil, http.StatusBadRequest, errors.New("exactly one of query or keywords must be set")
	}
	if sreq.K > s.cfg.MaxK {
		return req, nil, http.StatusBadRequest, fmt.Errorf("k %d exceeds the maximum of %d", sreq.K, s.cfg.MaxK)
	}
	// requestContext honours only a positive timeout_ms, so a negative one
	// would silently mean "server default"; reject it, as /watch does.
	if sreq.TimeoutMS < 0 {
		return req, nil, http.StatusBadRequest, fmt.Errorf("negative timeout_ms %d", sreq.TimeoutMS)
	}
	var err error
	if sreq.Query != "" {
		req.Query, err = tpq.Parse(sreq.Query)
	} else {
		req.Query, err = keywordQuery(sreq.Keywords)
	}
	if err != nil {
		return req, nil, http.StatusBadRequest, err
	}
	if sreq.Profile != "" && sreq.ProfileName != "" {
		return req, nil, http.StatusBadRequest, errors.New("profile and profile_name are mutually exclusive")
	}
	if sreq.Profile != "" {
		req.Profile, err = profile.ParseProfile(sreq.Profile)
		if err != nil {
			return req, nil, http.StatusBadRequest, err
		}
	}
	if sreq.ProfileName != "" {
		st, ok := s.profiles.Get(sreq.ProfileName)
		if !ok {
			return req, nil, http.StatusNotFound, fmt.Errorf("unknown profile %q", sreq.ProfileName)
		}
		// The resolved body flows into the engine request exactly as an
		// inline profile would, so the cache key (which folds the
		// canonical profile) is automatically fingerprint-keyed: the name
		// never reaches it.
		req.Profile = st.Profile()
	}
	req.Strategy, err = plan.ParseStrategy(sreq.Strategy)
	if err != nil {
		return req, nil, http.StatusBadRequest, err
	}
	// From here on req.K is the effective result size.
	req.K = sreq.K
	if req.K, err = req.Validate(); err != nil {
		return req, nil, http.StatusBadRequest, err
	}
	// req.Access and req.Parallelism stay zero: the planner picks the
	// access path and the worker count. The serving layer always pays
	// for operator timing: /metrics and the slow-query log attribute time
	// inside the plan with it.
	req.Timing = true
	// Extra plan goroutines come from the scheduler's shared budget.
	req.Budget = s.pool.Budget()

	if fanout {
		if snap.Len() == 0 {
			return req, nil, http.StatusNotFound, errors.New("no documents registered")
		}
		return req, nil, 0, nil
	}
	entry, ok := snap.Entry(sreq.Doc)
	if !ok {
		return req, nil, http.StatusNotFound, fmt.Errorf("unknown document %q", sreq.Doc)
	}
	return req, entry, 0, nil
}

// cacheKey derives the canonical result-cache key and invalidation
// tags for the request against the target buildEngineRequest resolved
// (entry, or the whole snapshot when nil). The key carries the
// *resolved* parallelism — what the plan will actually run given the
// document size — so requests that resolve identically share an entry
// (see engine.Request.CacheKey). Fingerprints are generation-stamped
// (corpus.Entry.Fingerprint), so a key minted here can never collide
// with one minted against any other generation of the same document.
func (s *Server) cacheKey(snap *corpus.Snapshot, entry *corpus.Entry, req engine.Request) (string, []string) {
	if entry == nil {
		// Fan-out per-document plans always run sequentially (the
		// fan-out itself is the parallelism); the result depends on
		// every document, so any mutation invalidates it (TagAll).
		return req.CacheKey(snap.Fingerprint(), 1), []string{TagAll}
	}
	par := plan.ResolveParallelism(req.Parallelism, entry.Document().Len())
	return req.CacheKey(entry.Fingerprint(), par), []string{entry.Name()}
}

// execute runs the search (single document or fan-out) against the
// caller's snapshot — the same one its cache key was derived from —
// records the execution's plan and pipeline metrics, feeds the
// slow-query log, and marshals the cacheable body. It runs at most
// once per cache key — inside the single-flight fill — so cache hits
// neither re-record operator metrics nor re-trip the slow-query log.
func (s *Server) execute(ctx context.Context, snap *corpus.Snapshot, entry *corpus.Entry, sreq *SearchRequest, req engine.Request) (*cachedSearch, error) {
	// Admission happens here — inside the single-flight fill — so cache
	// hits and coalesced followers never occupy a slot; only work that
	// will actually execute competes for the pool.
	release, err := s.pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	// One body, one slow-log record: each kind of search fills in the
	// fields it has.
	body := SearchBody{K: req.K, Strategy: req.Strategy.String()}
	slow := slowQuery{Doc: sreq.Doc, Query: querySource(sreq)}
	var elapsed time.Duration
	if entry == nil {
		resp, err := snap.SearchContext(ctx, req.Query, req.Profile, req.K, req.Strategy)
		if err != nil {
			return nil, err
		}
		body.AppliedSRs, body.Parallelism, body.DocsSearched = resp.AppliedSRs, 1, resp.DocsSearched
		body.Results = make([]SearchResult, 0, len(resp.Results))
		for _, res := range resp.Results {
			body.Results = append(body.Results, SearchResult{
				Doc: res.DocName, Node: uint32(res.Node), Path: res.Path,
				S: res.S, K: res.K, Snippet: res.Snippet,
			})
		}
		elapsed, slow.Plan = resp.Elapsed, fmt.Sprintf("fan-out over %d docs, %d skipped by the shared k-th", resp.DocsSearched, resp.DocsSkipped)
	} else {
		eng := engine.FromParts(entry.Document(), entry.Index())
		eng.UseAnalysisCache(s.analysis)
		resp, err := eng.SearchContext(ctx, req)
		if err != nil {
			return nil, err
		}
		s.metrics.recordSearch(resp)
		body.AppliedSRs, body.Parallelism, body.DocsSearched = resp.AppliedSRs, resp.Parallelism, 1
		body.PlanShape, body.Workers, body.TotalPruned, body.Trace = resp.PlanShape, resp.Workers, resp.TotalPruned, resp.Trace
		body.Results = make([]SearchResult, 0, len(resp.Results))
		for _, res := range resp.Results {
			body.Results = append(body.Results, SearchResult{
				Doc: sreq.Doc, Node: uint32(res.Node), Path: res.Path,
				S: res.S, K: res.K, Snippet: res.Snippet,
			})
		}
		elapsed, slow.Plan, slow.Stats = resp.Elapsed, resp.PlanShape, resp.Stats
	}
	body.ExecUS = elapsed.Microseconds()
	if s.slowlog != nil {
		slow.Elapsed = elapsed
		s.slowlog.observe(slow)
	}
	b, err := json.Marshal(&body)
	if err != nil {
		return nil, err
	}
	return &cachedSearch{body: b, storedAt: time.Now()}, nil
}

// querySource returns whichever query form the request carried, for
// log lines.
func querySource(sreq *SearchRequest) string {
	if sreq.Query != "" {
		return sreq.Query
	}
	return "keywords: " + sreq.Keywords
}

// LintRequest is the /lint body: a profile to vet, optionally against a
// query (which enables the query-scoped checks: conflict cycles,
// unsatisfiable rewrites, inert ordering rules).
type LintRequest struct {
	Profile string `json:"profile"`
	Query   string `json:"query"`
}

// LintResponse is the /lint payload: the vet verdict for a
// (profile[, query]) pair, the shape `pimento vet -json` prints.
type LintResponse = analysis.Report

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	var lreq LintRequest
	if !s.decodeJSON(w, r, &lreq) {
		return
	}
	if lreq.Profile == "" {
		s.writeError(w, http.StatusBadRequest, "parse", errors.New("profile is required"))
		return
	}
	prof, err := profile.ParseProfile(lreq.Profile)
	if err != nil {
		// A duplicate rule identifier is a *finding*, not a malformed
		// request; anything else is a plain parse failure.
		if ds := analysis.ParseDiagnostics(err); ds != nil {
			s.analysis.RecordDiagnostics(ds)
			s.writeJSON(w, http.StatusOK, analysis.NewReport(ds))
			return
		}
		s.writeError(w, http.StatusBadRequest, "parse", err)
		return
	}
	var q *tpq.Query
	if lreq.Query != "" {
		if q, err = tpq.Parse(lreq.Query); err != nil {
			s.writeError(w, http.StatusBadRequest, "parse", err)
			return
		}
	}
	ds, err := s.vetDiagnostics(r.Context(), prof, q)
	if err != nil {
		s.writeSearchError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, analysis.NewReport(ds))
}

// vetDiagnostics assembles the full diagnostics list for (prof[, q])
// through the shared analysis cache, so repeated lints — and searches
// with the same profile — hit memoized verdicts. The only possible
// error is ctx expiring mid-fill.
func (s *Server) vetDiagnostics(ctx context.Context, prof *profile.Profile, q *tpq.Query) ([]analysis.Diagnostic, error) {
	pv, err := s.analysis.ProfileVerdict(ctx, prof)
	if err != nil {
		return nil, err
	}
	ds := append([]analysis.Diagnostic(nil), pv.Diags...)
	if q != nil {
		qv, err := s.analysis.QueryVerdict(ctx, prof, q)
		if err != nil {
			return nil, err
		}
		ds = append(ds, qv.Diags...)
	}
	analysis.SortDiagnostics(ds)
	return ds, nil
}

// ExplainRequest is the /explain body.
type ExplainRequest struct {
	Query   string `json:"query"`
	Profile string `json:"profile"`
}

// ExplainResponse reports the Section 5 static analyses plus the
// trace of the analysis pipeline that produced them.
type ExplainResponse struct {
	Ambiguous   bool           `json:"ambiguous"`
	Cycle       []string       `json:"cycle,omitempty"`
	Suggestion  string         `json:"suggestion,omitempty"`
	ConflictErr string         `json:"conflict_error,omitempty"`
	Applied     []string       `json:"applied_srs,omitempty"`
	Flock       []string       `json:"flock,omitempty"`
	Trace       []metrics.Span `json:"trace,omitempty"`
	// Diagnostics is the vet suite's findings for (profile, query) —
	// the same list POST /lint returns.
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var ereq ExplainRequest
	if !s.decodeJSON(w, r, &ereq) {
		return
	}
	if ereq.Query == "" || ereq.Profile == "" {
		s.writeError(w, http.StatusBadRequest, "parse", errors.New("query and profile are required"))
		return
	}
	q, err := tpq.Parse(ereq.Query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "parse", err)
		return
	}
	prof, err := profile.ParseProfile(ereq.Profile)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "parse", err)
		return
	}
	ctx := r.Context()
	pa, err := engine.AnalyzeProfile(ctx, s.analysis, prof, q)
	if err != nil {
		s.writeSearchError(w, err)
		return
	}
	ds, err := s.vetDiagnostics(ctx, prof, q)
	if err != nil {
		s.writeSearchError(w, err)
		return
	}
	eresp := ExplainResponse{
		Ambiguous:   pa.Ambiguity.Ambiguous,
		Cycle:       pa.Ambiguity.Cycle,
		Suggestion:  pa.Ambiguity.Suggestion,
		Applied:     pa.Applied,
		Trace:       pa.Trace,
		Diagnostics: ds,
	}
	if pa.ConflictErr != nil {
		eresp.ConflictErr = pa.ConflictErr.Error()
	}
	for _, fq := range pa.Flock {
		eresp.Flock = append(eresp.Flock, fq.String())
	}
	s.writeJSON(w, http.StatusOK, &eresp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"docs":   s.reg.Len(),
	})
}

// handleMetrics serves the Prometheus text exposition. Cache and
// registry totals are mirrored into the registry at scrape time (they
// have authoritative owners elsewhere); everything else is live.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	s.metrics.syncGauges(snap.Len(), snap.Generation(), s.cache.Stats(), s.analysis.Stats(), s.profiles.Stats(), s.pool.Stats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w)
}

// RegistryStats is the /statsz profile-registry counter block.
type RegistryStats struct {
	// Names is the number of registered profile names; Distinct the
	// number of deduplicated bodies behind them (Names − Distinct is
	// the dedup savings).
	Names    int `json:"names"`
	Distinct int `json:"distinct"`
	// Puts and Deletes count applied registrations/unbindings; Rejected
	// counts vet-on-write and parse refusals (which change no state).
	Puts     int64 `json:"puts"`
	Deletes  int64 `json:"deletes"`
	Rejected int64 `json:"rejected"`
}

// MutationStats is the /statsz mutation counter block.
type MutationStats struct {
	// Puts and Deletes count applied mutations; Rejected counts refused
	// ones (bad name, parse failure, oversized body, delete of a
	// missing document) — rejections change no state.
	Puts     int64 `json:"puts"`
	Deletes  int64 `json:"deletes"`
	Rejected int64 `json:"rejected"`
}

// Statsz is the /statsz payload.
type Statsz struct {
	Docs int `json:"docs"`
	// Generation is the corpus generation: the total number of applied
	// mutations since the process started.
	Generation uint64           `json:"generation"`
	Endpoints  map[string]int64 `json:"endpoints"`
	Errors4xx  int64            `json:"errors_4xx"`
	Errors5xx  int64            `json:"errors_5xx"`
	Timeouts   int64            `json:"timeouts"`
	Canceled   int64            `json:"canceled"`
	// Shed counts searches the admission scheduler refused (503/429).
	Shed     int64         `json:"shed"`
	InFlight int64         `json:"in_flight"`
	Mutation MutationStats `json:"mutations"`
	// Registry is the named-profile store's counter block.
	Registry RegistryStats `json:"registry"`
	// WatchSubscribers is the number of /watch long polls parked now.
	WatchSubscribers int64      `json:"watch_subscribers"`
	Cache            CacheStats `json:"cache"`
	// Analysis is the shared analysis-verdict cache's counter block.
	Analysis engine.AnalysisCacheStats `json:"analysis"`
	// Sched is the admission scheduler's counter block.
	Sched sched.Stats `json:"sched"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot returns the /statsz payload: a JSON view of the metrics
// registry's request, error, mutation and registry series plus
// the stats blocks their owners keep (corpus, caches, scheduler). There
// is no second set of counters behind it, so /statsz and /metrics
// cannot disagree.
func (s *Server) Snapshot() Statsz {
	snap := s.reg.Snapshot()
	m := s.metrics
	endpoints := make(map[string]int64, len(endpointNames))
	for _, ep := range endpointNames {
		endpoints[ep] = m.requests[ep].Value()
	}
	mutation := func(op, outcome string) int64 { return m.mutations[[2]string{op, outcome}].Value() }
	registryReq := func(op, outcome string) int64 { return m.registryRequests[[2]string{op, outcome}].Value() }
	rs := s.profiles.Stats()
	return Statsz{
		Docs:       snap.Len(),
		Generation: snap.Generation(),
		Endpoints:  endpoints,
		Errors4xx:  m.errors["4xx"].Value(),
		Errors5xx:  m.errors["5xx"].Value(),
		Timeouts:   m.errors["timeout"].Value(),
		Canceled:   m.errors["canceled"].Value(),
		Shed:       m.errors["overloaded"].Value() + m.errors["throttled"].Value(),
		InFlight:   m.inFlight.Value(),
		Mutation: MutationStats{
			Puts:     mutation("put", "created") + mutation("put", "replaced"),
			Deletes:  mutation("delete", "applied"),
			Rejected: mutation("put", "rejected") + mutation("delete", "rejected"),
		},
		Registry: RegistryStats{
			Names:    rs.Names,
			Distinct: rs.Distinct,
			Puts:     registryReq("put", "created") + registryReq("put", "replaced"),
			Deletes:  registryReq("delete", "applied"),
			Rejected: registryReq("put", "rejected"),
		},
		WatchSubscribers: m.watchSubscribers.Value(),
		Cache:            s.cache.Stats(),
		Analysis:         s.analysis.Stats(),
		Sched:            s.pool.Stats(),
	}
}

// --- plumbing ---

// decodeJSON reads a JSON request body of at most maxBodyBytes into v,
// rejecting unknown fields and anything but whitespace after the value;
// on failure it writes the 400 and returns false.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "parse", fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// readBody reads a raw request body (what: "document", "profile") of at
// most limit bytes. A failure comes back with its status — 413 when
// oversized, else 400 — for the caller's own rejection counter.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) (src []byte, status int, err error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if n := r.ContentLength; n > 0 && n <= limit {
		// The client said how much is coming (net/http hands over no more
		// than that): one buffer of that size, not io.ReadAll's regrowth.
		src = make([]byte, n)
		_, err = io.ReadFull(body, src)
	} else {
		src, err = io.ReadAll(body)
	}
	if err == nil {
		return src, 0, nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("%s body exceeds the %d-byte limit", what, tooBig.Limit)
	}
	return nil, http.StatusBadRequest, fmt.Errorf("reading %s body: %w", what, err)
}

// requestContext derives the execution context: the client's context
// (cancelled on disconnect) bounded by the tighter of the server
// default timeout and the request's timeout_ms. A non-positive default
// means no server default, so the request's own bound still applies.
func (s *Server) requestContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		rd := time.Duration(timeoutMS) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// classifySearchError maps an execution error onto its HTTP status and
// error kind: deadline → 504, client cancel → 499 (nginx's
// convention), a profile the Section 5 gate rejects → 400 "vet" (what
// PUT /profiles answers the same body with), anything else the engine
// reports → 500. Counting happens once, by status, in
// serverMetrics.recordError (regression: TestErrorClassCounters).
func classifySearchError(err error) (status int, kind string) {
	var rej *engine.Rejection
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		// The admission queue is full: genuine overload, shed with 503
		// so clients back off (Retry-After is attached by the writer).
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, sched.ErrQueueWait):
		// Queued past the wait bound: throttle with 429.
		return http.StatusTooManyRequests, "throttled"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		// 499: the client went away; the write is best-effort. A client
		// that disconnects while queued for admission lands here too.
		return 499, "canceled"
	case errors.As(err, &rej):
		return http.StatusBadRequest, "vet"
	default:
		return http.StatusInternalServerError, "engine"
	}
}

// writeSearchError classifies and reports an execution error; a shed
// carries Retry-After.
func (s *Server) writeSearchError(w http.ResponseWriter, err error) {
	status, kind := classifySearchError(err)
	if kind == "overloaded" || kind == "throttled" {
		// Retry-After: the queue's estimated drain time at the pool's
		// recent service rate.
		w.Header().Set("Retry-After", strconv.Itoa(s.pool.RetryAfter()))
	}
	s.writeError(w, status, kind, err)
}

// writeError reports an error response and counts it once per error
// class (serverMetrics.recordError).
func (s *Server) writeError(w http.ResponseWriter, status int, kind string, err error) {
	s.writeErrorBody(w, status, &errorResponse{Error: err.Error(), Kind: kind})
}

// writeErrorBody is writeError for responses with a richer payload
// than errorResponse (the vet-on-write rejection).
func (s *Server) writeErrorBody(w http.ResponseWriter, status int, body any) {
	s.metrics.recordError(status)
	s.writeJSON(w, status, body)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// keywordQuery builds the content-only query form (any element whose
// subtree contains every phrase).
func keywordQuery(keywords string) (*tpq.Query, error) {
	if strings.TrimSpace(keywords) == "" {
		return nil, errors.New("empty keywords")
	}
	q := tpq.NewQuery("*", tpq.Descendant)
	q.Nodes[0].FT = append(q.Nodes[0].FT, tpq.FTPred{Phrase: keywords})
	return q, nil
}
