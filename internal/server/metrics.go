// Prometheus-style metrics for the serving layer.
//
// Every label value used here comes from a compile-time-enumerable set
// (endpoint names, operator kinds, pipeline stages, error classes,
// cache outcomes) — never from request content. That keeps the series
// count bounded no matter what clients send; TestMetricsLabelLint pins
// the rule by scraping /metrics after a hostile workload and checking
// every label value against these sets.
package server

import (
	"net/http"
	"time"

	"repro/internal/algebra"
	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sched"
)

// opKinds is the static operator-kind label set: every algebra operator
// folds its display name (which may embed phrases or tags, e.g.
// "ftjoin(best bid)") down to one of these via OpStats.Kind.
var opKinds = []string{
	"scan", "listscan", "twigscan", "twigjoin", "required", "unitfilter",
	"ftjoin", "ftouterjoin", "bonus", "vor", "kor", "topkPrune", "sort",
}

// twigOutcomes labels pimento_twigjoin_queries_total: "joined" when the
// holistic join ran, "shortcircuit" when the dataguide proved the
// skeleton non-embedding and no join ran at all.
var twigOutcomes = []string{"joined", "shortcircuit"}

// stageNames is the pipeline-trace span set recorded by
// engine.SearchContext.
var stageNames = []string{"analyze", "rewrite", "build", "execute", "rank"}

// endpointNames is the HTTP endpoint label set ("docs" covers the
// PUT/DELETE/GET document mutation surface, "profiles" the named-
// profile registry, "watch" the long poll).
var endpointNames = []string{"search", "explain", "lint", "docs", "profiles", "watch", "healthz", "statsz", "metrics"}

// mutationSeries enumerates the valid {op, outcome} combinations of
// pimento_corpus_mutations_total: a put creates, replaces, or is
// rejected; a delete applies or is rejected (including delete of a
// missing name). Rejected mutations change no server state.
var mutationSeries = [][2]string{
	{"put", "created"}, {"put", "replaced"}, {"put", "rejected"},
	{"delete", "applied"}, {"delete", "rejected"},
}

// registrySeries enumerates the valid {op, outcome} combinations of
// pimento_registry_requests_total: a put creates, replaces (rebinding
// an existing name), or is rejected (vet-on-write veto, parse failure,
// bad name); a get or delete finds its name or doesn't; a list always
// succeeds.
var registrySeries = [][2]string{
	{"put", "created"}, {"put", "replaced"}, {"put", "rejected"},
	{"get", "ok"}, {"get", "not_found"},
	{"delete", "applied"}, {"delete", "not_found"},
	{"list", "ok"},
}

// registryViews labels pimento_registry_profiles: registered names vs
// the distinct deduplicated bodies behind them — the gap between the
// two series is the content-fingerprint dedup savings.
var registryViews = []string{"names", "distinct"}

// cacheNames labels pimento_cache_invalidations_total. The analysis
// cache is profile-keyed and document-independent, so document
// mutations never invalidate it — the series is exposed (at zero) to
// make that contract observable.
var cacheNames = []string{"result", "analysis"}

// errorClasses is the error-classification label set (see
// classifySearchError and writeError). "overloaded" is a scheduler
// queue-full shed (503), "throttled" a queue-wait-bound shed (429).
var errorClasses = []string{"4xx", "5xx", "timeout", "canceled", "overloaded", "throttled"}

// admissionOutcomes labels pimento_sched_admissions_total: how each
// request left the scheduler's admission step. "admitted" ran without
// queueing, "queued" waited first; the rest never got a slot.
var admissionOutcomes = []string{"admitted", "queued", "shed_queue_full", "shed_wait", "abandoned"}

// cacheOutcomes mirrors server.Outcome.String values.
var cacheOutcomes = []string{"hit", "miss", "coalesced"}

// answerDirs labels the three OpStats counters.
var answerDirs = []string{"in", "out", "pruned"}

// serverMetrics owns the registry behind GET /metrics plus
// preregistered handles for every series the server ever touches.
// Preregistration does double duty: the hot path never takes the
// registry's name lookup, and /metrics exposes the full schema (with
// zero values) from the first scrape.
type serverMetrics struct {
	reg *metrics.Registry

	requests map[string]*metrics.Counter   // by endpoint
	latency  map[string]*metrics.Histogram // by endpoint
	inFlight *metrics.Gauge
	errors   map[string]*metrics.Counter // by class

	cacheRequests  map[string]*metrics.Counter // by outcome, mirrored at scrape
	cacheEvictions *metrics.Counter            // mirrored at scrape
	cacheEntries   *metrics.Gauge
	cacheCapacity  *metrics.Gauge
	docs           *metrics.Gauge

	// Live-corpus series: mutation counters are bumped by the handlers;
	// the invalidation counters and generation gauge are mirrored from
	// their authoritative owners at scrape time.
	mutations          map[[2]string]*metrics.Counter // by {op, outcome}
	cacheInvalidations map[string]*metrics.Counter    // by cache name
	corpusGeneration   *metrics.Gauge
	watchSubscribers   *metrics.Gauge

	// Profile-registry series: request counters are bumped by the
	// handlers; the profile gauges are mirrored from the registry at
	// scrape time.
	registryRequests map[[2]string]*metrics.Counter // by {op, outcome}
	registryProfiles map[string]*metrics.Gauge      // by view

	// Analysis-cache mirrors (authoritative counters live in
	// engine.AnalysisCache, synced at scrape like the result cache).
	analysisRequests map[string]*metrics.Counter // by outcome
	analysisEntries  *metrics.Gauge
	diagnostics      map[string]*metrics.Counter // by check ID

	opWall    map[string]*metrics.Counter // by op kind
	opAnswers map[[2]string]*metrics.Counter
	stage     map[string]*metrics.Histogram

	twigQueries     map[string]*metrics.Counter // by outcome
	twigGuidePruned *metrics.Counter
	twigPushes      *metrics.Counter
	twigEmitted     *metrics.Counter

	slowTotal   *metrics.Counter
	slowDropped *metrics.Counter

	// Scheduler series. Admission counters and capacity/occupancy gauges
	// are mirrored from sched.Pool.Stats at scrape time; the queue-wait
	// histogram is fed live through the pool's ObserveWait hook.
	schedAdmissions map[string]*metrics.Counter // by admission outcome
	schedWorkers    *metrics.Gauge
	schedRunning    *metrics.Gauge
	schedQueueDepth *metrics.Gauge
	schedQueueCap   *metrics.Gauge
	schedBudgetUse  *metrics.Gauge
	schedQueueWait  *metrics.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:       reg,
		requests:  make(map[string]*metrics.Counter, len(endpointNames)),
		latency:   make(map[string]*metrics.Histogram, len(endpointNames)),
		errors:    make(map[string]*metrics.Counter, len(errorClasses)),
		opWall:    make(map[string]*metrics.Counter, len(opKinds)),
		opAnswers: make(map[[2]string]*metrics.Counter, len(opKinds)*len(answerDirs)),
		stage:     make(map[string]*metrics.Histogram, len(stageNames)),
	}
	for _, ep := range endpointNames {
		m.requests[ep] = reg.Counter("pimento_http_requests_total",
			"HTTP requests received, by endpoint.",
			metrics.Labels{"endpoint": ep})
		m.latency[ep] = reg.Histogram("pimento_http_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			metrics.DefBuckets, metrics.Labels{"endpoint": ep})
	}
	m.inFlight = reg.Gauge("pimento_http_in_flight",
		"Requests currently being served.", nil)
	for _, c := range errorClasses {
		m.errors[c] = reg.Counter("pimento_http_errors_total",
			"Request errors, by class (4xx, 5xx, timeout, canceled, overloaded, throttled; a timeout or overload shed also counts as 5xx, a client cancel or throttle as 4xx).",
			metrics.Labels{"class": c})
	}
	m.cacheRequests = make(map[string]*metrics.Counter, len(cacheOutcomes))
	for _, o := range cacheOutcomes {
		m.cacheRequests[o] = reg.Counter("pimento_cache_requests_total",
			"Result-cache lookups, by outcome.",
			metrics.Labels{"outcome": o})
	}
	m.cacheEvictions = reg.Counter("pimento_cache_evictions_total",
		"Result-cache LRU evictions.", nil)
	m.cacheEntries = reg.Gauge("pimento_cache_entries",
		"Result-cache entries resident.", nil)
	m.cacheCapacity = reg.Gauge("pimento_cache_capacity",
		"Result-cache capacity in entries.", nil)
	m.docs = reg.Gauge("pimento_docs",
		"Documents registered.", nil)
	m.mutations = make(map[[2]string]*metrics.Counter, len(mutationSeries))
	for _, s := range mutationSeries {
		m.mutations[s] = reg.Counter("pimento_corpus_mutations_total",
			"Document mutations, by op (put, delete) and outcome (created, replaced, applied, rejected).",
			metrics.Labels{"op": s[0], "outcome": s[1]})
	}
	m.cacheInvalidations = make(map[string]*metrics.Counter, len(cacheNames))
	for _, c := range cacheNames {
		m.cacheInvalidations[c] = reg.Counter("pimento_cache_invalidations_total",
			"Cache entries dropped by targeted invalidation after a document mutation, by cache. The analysis cache is document-independent and never invalidated.",
			metrics.Labels{"cache": c})
	}
	m.registryRequests = make(map[[2]string]*metrics.Counter, len(registrySeries))
	for _, s := range registrySeries {
		m.registryRequests[s] = reg.Counter("pimento_registry_requests_total",
			"Profile-registry requests, by op (put, get, delete, list) and outcome (created, replaced, rejected, ok, not_found, applied).",
			metrics.Labels{"op": s[0], "outcome": s[1]})
	}
	m.registryProfiles = make(map[string]*metrics.Gauge, len(registryViews))
	for _, v := range registryViews {
		m.registryProfiles[v] = reg.Gauge("pimento_registry_profiles",
			"Registered profiles, by view: bound names vs distinct deduplicated bodies.",
			metrics.Labels{"view": v})
	}
	m.corpusGeneration = reg.Gauge("pimento_corpus_generation",
		"Corpus generation: applied mutations since process start.", nil)
	m.watchSubscribers = reg.Gauge("pimento_watch_subscribers",
		"GET /watch long polls currently parked.", nil)
	m.analysisRequests = make(map[string]*metrics.Counter, len(cacheOutcomes))
	for _, o := range cacheOutcomes {
		m.analysisRequests[o] = reg.Counter("pimento_analysis_cache_requests_total",
			"Analysis-verdict cache lookups (profile/query static analysis), by outcome.",
			metrics.Labels{"outcome": o})
	}
	m.analysisEntries = reg.Gauge("pimento_analysis_cache_entries",
		"Analysis-verdict cache entries resident.", nil)
	ids := analysis.DiagnosticIDs()
	m.diagnostics = make(map[string]*metrics.Counter, len(ids))
	for _, id := range ids {
		m.diagnostics[id] = reg.Counter("pimento_diagnostics_total",
			"Vet diagnostics produced by analysis fills, by check ID (each unique profile/query analyzed counts once).",
			metrics.Labels{"check": id}) //pimento:allow metriclabels check IDs come from analysis.DiagnosticIDs(), a fixed compile-time registry the analyzer cannot see through the call
	}
	for _, k := range opKinds {
		m.opWall[k] = reg.Counter("pimento_plan_operator_wall_nanoseconds_total",
			"Wall time spent inside plan operators (inclusive of upstream), by operator kind.",
			metrics.Labels{"op": k})
		for _, d := range answerDirs {
			m.opAnswers[[2]string{k, d}] = reg.Counter("pimento_plan_operator_answers_total",
				"Answers consumed (in), emitted (out) and pruned by plan operators, by operator kind.",
				metrics.Labels{"op": k, "dir": d})
		}
	}
	for _, st := range stageNames {
		m.stage[st] = reg.Histogram("pimento_pipeline_stage_seconds",
			"Personalization pipeline stage latency in seconds (analyze, rewrite, build, execute, rank).",
			metrics.DefBuckets, metrics.Labels{"stage": st})
	}
	m.twigQueries = make(map[string]*metrics.Counter, len(twigOutcomes))
	for _, o := range twigOutcomes {
		m.twigQueries[o] = reg.Counter("pimento_twigjoin_queries_total",
			"Searches served by the twigjoin access path, by outcome (joined, shortcircuit).",
			metrics.Labels{"outcome": o})
	}
	m.twigGuidePruned = reg.Counter("pimento_twigjoin_guide_pruned_total",
		"Elements skipped by dataguide pruning before entering a twig-join stream.", nil)
	m.twigPushes = reg.Counter("pimento_twigjoin_stack_pushes_total",
		"Elements pushed onto twig-join stacks (pass-1 stream volume).", nil)
	m.twigEmitted = reg.Counter("pimento_twigjoin_candidates_total",
		"Candidates emitted by twig joins across all pattern nodes.", nil)
	m.slowTotal = reg.Counter("pimento_slow_queries_total",
		"Searches slower than the configured slow-query threshold.", nil)
	m.slowDropped = reg.Counter("pimento_slow_queries_dropped_total",
		"Slow-query log entries dropped because the logger could not keep up.", nil)
	m.schedAdmissions = make(map[string]*metrics.Counter, len(admissionOutcomes))
	for _, o := range admissionOutcomes {
		m.schedAdmissions[o] = reg.Counter("pimento_sched_admissions_total",
			"Scheduler admission decisions, by outcome (admitted, queued, shed_queue_full, shed_wait, abandoned).",
			metrics.Labels{"outcome": o})
	}
	m.schedWorkers = reg.Gauge("pimento_sched_workers",
		"Scheduler worker-pool size (concurrent executions allowed).", nil)
	m.schedRunning = reg.Gauge("pimento_sched_running",
		"Executions currently holding a scheduler slot.", nil)
	m.schedQueueDepth = reg.Gauge("pimento_sched_queue_depth",
		"Requests waiting for a scheduler slot.", nil)
	m.schedQueueCap = reg.Gauge("pimento_sched_queue_capacity",
		"Scheduler waiting-room capacity.", nil)
	m.schedBudgetUse = reg.Gauge("pimento_sched_budget_in_use",
		"Extra execution goroutines (plan partitions, fan-out helpers) currently drawn from the shared budget.", nil)
	m.schedQueueWait = reg.Histogram("pimento_sched_queue_wait_seconds",
		"Time admitted requests spent queued for a scheduler slot.",
		metrics.DefBuckets, nil)
	return m
}

// startRequest records a request's arrival and returns the completion
// callback that observes its latency; Server.route wraps every handler
// in it. An endpoint outside endpointNames has no handles and panics on
// the first request, so route's callers pass constants.
func (m *serverMetrics) startRequest(endpoint string) func() {
	m.requests[endpoint].Inc()
	m.inFlight.Add(1)
	start := time.Now()
	return func() {
		m.latency[endpoint].Observe(time.Since(start).Seconds())
		m.inFlight.Add(-1)
	}
}

// recordError folds an HTTP error status into the class counters.
// 504 is both a timeout and a 5xx; 499 is both a cancel and a 4xx —
// each dimension counts the request exactly once (regression:
// TestErrorClassCounters).
func (m *serverMetrics) recordError(status int) {
	switch {
	case status == http.StatusGatewayTimeout:
		m.errors["timeout"].Inc()
		m.errors["5xx"].Inc()
	case status == http.StatusServiceUnavailable:
		m.errors["overloaded"].Inc()
		m.errors["5xx"].Inc()
	case status == http.StatusTooManyRequests:
		m.errors["throttled"].Inc()
		m.errors["4xx"].Inc()
	case status == 499:
		m.errors["canceled"].Inc()
		m.errors["4xx"].Inc()
	case status >= 500:
		m.errors["5xx"].Inc()
	case status >= 400:
		m.errors["4xx"].Inc()
	}
}

// recordSearch folds one fresh execution's response into the plan and
// pipeline metrics. Cache hits and coalesced followers never reach
// here — their leader already recorded the execution once.
func (m *serverMetrics) recordSearch(resp *engine.Response) {
	m.recordPlanStats(resp.Stats)
	for _, sp := range resp.Trace {
		if h, ok := m.stage[sp.Name]; ok {
			h.Observe(float64(sp.DurUS) / 1e6)
		}
	}
	if js := resp.TwigJoin; js != nil {
		if js.GuideShortCircuit {
			m.twigQueries["shortcircuit"].Inc()
		} else {
			m.twigQueries["joined"].Inc()
		}
		m.twigGuidePruned.Add(int64(js.GuidePruned))
		m.twigPushes.Add(int64(js.StackPushes))
		m.twigEmitted.Add(int64(js.Emitted))
	}
}

// recordPlanStats folds per-operator counters by operator kind. The
// fold is what keeps label cardinality static: operator display names
// embed query content, kinds do not.
func (m *serverMetrics) recordPlanStats(stats []algebra.OpStats) {
	for _, s := range stats {
		k := s.Kind()
		if c, ok := m.opWall[k]; ok {
			c.Add(s.WallNS)
		}
		if c, ok := m.opAnswers[[2]string{k, "in"}]; ok {
			c.Add(int64(s.In))
			m.opAnswers[[2]string{k, "out"}].Add(int64(s.Out))
			m.opAnswers[[2]string{k, "pruned"}].Add(int64(s.Pruned))
		}
	}
}

// syncGauges refreshes the scrape-time mirrors: cache counters live in
// ResultCache and engine.AnalysisCache (authoritative), document count
// in the registry. Counter totals are monotone in the sources, so Store
// is safe here.
func (m *serverMetrics) syncGauges(docs int, gen uint64, cs CacheStats, as engine.AnalysisCacheStats, rs registry.Stats, ss sched.Stats) {
	m.docs.Set(int64(docs))
	m.corpusGeneration.Set(int64(gen))
	m.registryProfiles["names"].Set(int64(rs.Names))
	m.registryProfiles["distinct"].Set(int64(rs.Distinct))
	m.cacheInvalidations["result"].Store(cs.Invalidations)
	m.cacheRequests["hit"].Store(cs.Hits)
	m.cacheRequests["miss"].Store(cs.Misses)
	m.cacheRequests["coalesced"].Store(cs.Coalesced)
	m.cacheEvictions.Store(cs.Evictions)
	m.cacheEntries.Set(int64(cs.Entries))
	m.cacheCapacity.Set(int64(cs.Capacity))
	m.analysisRequests["hit"].Store(int64(as.Hits))
	m.analysisRequests["miss"].Store(int64(as.Misses))
	m.analysisRequests["coalesced"].Store(int64(as.Coalesced))
	m.analysisEntries.Set(int64(as.Entries))
	for id, n := range as.Diagnostics {
		if c, ok := m.diagnostics[id]; ok {
			c.Store(int64(n))
		}
	}
	m.schedAdmissions["admitted"].Store(ss.Admitted)
	m.schedAdmissions["queued"].Store(ss.AdmittedQueued)
	m.schedAdmissions["shed_queue_full"].Store(ss.ShedQueueFull)
	m.schedAdmissions["shed_wait"].Store(ss.ShedWait)
	m.schedAdmissions["abandoned"].Store(ss.Abandoned)
	m.schedWorkers.Set(int64(ss.Workers))
	m.schedRunning.Set(int64(ss.Running))
	m.schedQueueDepth.Set(int64(ss.Queued))
	m.schedQueueCap.Set(int64(ss.QueueCap))
	m.schedBudgetUse.Set(int64(ss.BudgetInUse))
}
