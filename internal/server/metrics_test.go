package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// scrape fetches and parses /metrics, failing on any exposition-format
// violation (the parser validates TYPE lines, sample/family pairing and
// histogram invariants).
func scrape(t testing.TB, ts *httptest.Server) map[string]*metrics.Family {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseExposition(sb.String())
	if err != nil {
		t.Fatalf("exposition lint failed: %v\n%s", err, sb.String())
	}
	return fams
}

// findSample returns the value of the sample with the given rendered
// name whose labels include every pair in want.
func findSample(t testing.TB, fams map[string]*metrics.Family, family, name string, want map[string]string) float64 {
	t.Helper()
	f, ok := fams[family]
	if !ok {
		t.Fatalf("family %q not exposed", family)
	}
outer:
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		for k, v := range want {
			if s.Labels[k] != v {
				continue outer
			}
		}
		return s.Value
	}
	t.Fatalf("no sample %s%v in family %s", name, want, family)
	return 0
}

// TestMetricsEndpoint drives every endpoint once (plus a cache hit and
// a client error), then lints the /metrics output and checks the
// per-endpoint, per-operator and pipeline-stage series carry the
// traffic.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A one-node pattern: the planner scans it (a twig join needs two
	// required pattern nodes), and the per-operator assertions below name
	// the scan source.
	req := SearchRequest{Doc: "cars", Query: `//car[. ftcontains "good condition"]`, Profile: carsProfile, K: 3}
	post(t, ts, "/search", req)                                          // MISS
	post(t, ts, "/search", req)                                          // HIT
	post(t, ts, "/search", SearchRequest{Doc: "nope", Query: carsQuery}) // 404
	post(t, ts, "/explain", ExplainRequest{Query: carsQuery, Profile: carsProfile})
	get(t, ts, "/healthz")
	get(t, ts, "/statsz")

	fams := scrape(t, ts)

	if got := findSample(t, fams, "pimento_http_requests_total",
		"pimento_http_requests_total", map[string]string{"endpoint": "search"}); got < 3 {
		t.Errorf("search requests = %v, want >= 3", got)
	}
	if got := findSample(t, fams, "pimento_http_request_seconds",
		"pimento_http_request_seconds_count", map[string]string{"endpoint": "search"}); got < 3 {
		t.Errorf("search latency observations = %v, want >= 3", got)
	}
	if got := findSample(t, fams, "pimento_http_errors_total",
		"pimento_http_errors_total", map[string]string{"class": "4xx"}); got < 1 {
		t.Errorf("4xx errors = %v, want >= 1", got)
	}

	// One fresh execution ran (the HIT must not re-record), so the plan
	// operator counters carry exactly that execution's traffic.
	if got := findSample(t, fams, "pimento_plan_operator_wall_nanoseconds_total",
		"pimento_plan_operator_wall_nanoseconds_total", map[string]string{"op": "scan"}); got <= 0 {
		t.Errorf("scan wall time = %v, want > 0", got)
	}
	if got := findSample(t, fams, "pimento_plan_operator_answers_total",
		"pimento_plan_operator_answers_total", map[string]string{"op": "scan", "dir": "in"}); got <= 0 {
		t.Errorf("scan answers in = %v, want > 0", got)
	}
	for _, stage := range []string{"analyze", "build", "execute", "rank"} {
		if got := findSample(t, fams, "pimento_pipeline_stage_seconds",
			"pimento_pipeline_stage_seconds_count", map[string]string{"stage": stage}); got < 1 {
			t.Errorf("stage %s observations = %v, want >= 1", stage, got)
		}
	}

	// Cache counters mirror the authoritative ResultCache stats.
	cs := s.Cache().Stats()
	if got := findSample(t, fams, "pimento_cache_requests_total",
		"pimento_cache_requests_total", map[string]string{"outcome": "hit"}); got != float64(cs.Hits) {
		t.Errorf("cache hits = %v, want %d", got, cs.Hits)
	}
	if got := findSample(t, fams, "pimento_cache_requests_total",
		"pimento_cache_requests_total", map[string]string{"outcome": "miss"}); got != float64(cs.Misses) {
		t.Errorf("cache misses = %v, want %d", got, cs.Misses)
	}
	if got := findSample(t, fams, "pimento_docs", "pimento_docs", nil); got != 2 {
		t.Errorf("docs gauge = %v, want 2", got)
	}

	// Determinism: scraping twice without traffic in between yields the
	// same request counter (plus the scrapes themselves).
	again := scrape(t, ts)
	if got := findSample(t, again, "pimento_http_requests_total",
		"pimento_http_requests_total", map[string]string{"endpoint": "metrics"}); got < 2 {
		t.Errorf("metrics endpoint requests = %v, want >= 2", got)
	}
}

// TestMetricsLabelLint pins the static-cardinality rule: after a
// workload whose queries and profiles embed arbitrary content, every
// label value on /metrics still comes from a compile-time-enumerable
// set — request content must never mint new series.
func TestMetricsLabelLint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Hostile-ish workload: phrases and tags that would explode the
	// series count if operator display names leaked into labels.
	for i, q := range []string{
		`//car[./description[. ftcontains "weird unique phrase alpha"]]`,
		`//car[./description[. ftcontains "another singular phrase beta"]]`,
		`//person(*)[.//business[. ftcontains "Yes"]]`,
	} {
		doc := "cars"
		if strings.Contains(q, "person") {
			doc = "xmark"
		}
		post(t, ts, "/search", SearchRequest{Doc: doc, Query: q, Profile: carsProfile, K: 2 + i})
	}
	post(t, ts, "/search", SearchRequest{Doc: "*", Keywords: "good condition", K: 3})
	post(t, ts, "/search", SearchRequest{Doc: "missing-doc", Query: carsQuery})
	// Mutations mint only static {op, outcome} series: hostile document
	// names must stay out of the label space.
	putDoc(t, ts, "weird-unique-name-gamma", carsXML)
	putDoc(t, ts, "weird-unique-name-gamma", carsXML) // replaced
	putDoc(t, ts, "rejected-doc", "<open><unclosed>") // parse-rejected
	deleteDoc(t, ts, "weird-unique-name-gamma")
	deleteDoc(t, ts, "never-registered-delta") // not_found-rejected
	getWatch(t, ts.URL+"/watch?since=0&timeout_ms=0")
	// Profile registrations mint only static {op, outcome} series too:
	// hostile profile names and bodies stay out of the label space.
	putProfile(t, ts, "weird-profile-name-epsilon", carsProfile)
	putProfile(t, ts, "weird-profile-name-epsilon", carsProfile) // replaced
	putProfile(t, ts, "ambiguous-profile", ambiguousProfile)     // vet-rejected
	getProfile(t, ts, "weird-profile-name-epsilon")
	getProfile(t, ts, "no-such-profile-zeta") // not_found
	deleteProfile(t, ts, "weird-profile-name-epsilon")
	deleteProfile(t, ts, "never-registered-eta") // not_found
	get(t, ts, "/profiles")

	allowed := map[string]map[string][]string{
		"endpoint": {"": endpointNames},
		"class":    {"": errorClasses},
		"outcome": {
			"":                               cacheOutcomes,
			"pimento_twigjoin_queries_total": twigOutcomes,
			"pimento_sched_admissions_total": admissionOutcomes,
			"pimento_corpus_mutations_total": {"created", "replaced", "applied", "rejected"},
			"pimento_registry_requests_total": {
				"created", "replaced", "rejected", "ok", "not_found", "applied",
			},
		},
		"op": {
			"":                                opKinds,
			"pimento_corpus_mutations_total":  {"put", "delete"},
			"pimento_registry_requests_total": {"put", "get", "delete", "list"},
		},
		"dir":   {"": answerDirs},
		"stage": {"": stageNames},
		"check": {"": analysis.DiagnosticIDs()},
		"cache": {"": cacheNames},
		"view":  {"": registryViews},
	}
	for _, f := range scrape(t, ts) {
		for _, s := range f.Samples {
			for k, v := range s.Labels {
				if k == "le" {
					continue // histogram bucket bound, numeric by construction
				}
				sets, ok := allowed[k]
				if !ok {
					t.Errorf("family %s: unexpected label key %q", f.Name, k)
					continue
				}
				set, ok := sets[f.Name]
				if !ok {
					set = sets[""]
				}
				found := false
				for _, val := range set {
					if v == val {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("family %s: label %s=%q outside the static set %v — dynamic cardinality",
						f.Name, k, v, set)
				}
			}
		}
	}
}

// TestErrorClassCounters is the table regression for error accounting:
// each error class lands on exactly one status, and every counter
// dimension sees the request exactly once — in particular a 504 is a timeout AND a 5xx, and a 499 is a cancel
// AND a 4xx, never double-counted within a dimension.
func TestErrorClassCounters(t *testing.T) {
	// A real gate rejection, un-memoized.
	_, _, rejection := engine.Personalize(context.Background(), nil,
		profile.MustParseProfile(ambiguousProfile), tpq.MustParse("//car"))
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantKind   string
		d4, d5     int64 // expected deltas
		dTimeout   int64
		dCanceled  int64
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout", 0, 1, 1, 0},
		{"wrapped deadline", fmt.Errorf("plan: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "timeout", 0, 1, 1, 0},
		{"canceled", context.Canceled, 499, "canceled", 1, 0, 0, 1},
		{"wrapped canceled", fmt.Errorf("scan: %w", context.Canceled), 499, "canceled", 1, 0, 0, 1},
		{"gate rejection", rejection, http.StatusBadRequest, "vet", 1, 0, 0, 0},
		{"wrapped gate rejection", fmt.Errorf("fan-out: %w", rejection), http.StatusBadRequest, "vet", 1, 0, 0, 0},
		{"engine", errors.New("boom"), http.StatusInternalServerError, "engine", 0, 1, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			defer s.Close()
			before := s.Snapshot()
			rec := httptest.NewRecorder()
			s.writeSearchError(rec, tc.err)

			if rec.Code != tc.wantStatus {
				t.Errorf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != tc.wantKind {
				t.Errorf("body kind = %q (err %v), want %q", er.Kind, err, tc.wantKind)
			}
			after := s.Snapshot()
			if got := after.Errors4xx - before.Errors4xx; got != tc.d4 {
				t.Errorf("statsz errors_4xx delta = %d, want %d", got, tc.d4)
			}
			if got := after.Errors5xx - before.Errors5xx; got != tc.d5 {
				t.Errorf("statsz errors_5xx delta = %d, want %d", got, tc.d5)
			}
			if got := after.Timeouts - before.Timeouts; got != tc.dTimeout {
				t.Errorf("statsz timeouts delta = %d, want %d", got, tc.dTimeout)
			}
			if got := after.Canceled - before.Canceled; got != tc.dCanceled {
				t.Errorf("statsz canceled delta = %d, want %d", got, tc.dCanceled)
			}
		})
	}
}

// TestStatszInFlightAgreesWithMetrics: /statsz is a view of the metrics
// registry, so a parked /watch long poll shows in its in_flight exactly
// as it shows in pimento_http_in_flight (/statsz used to count
// search/lint/explain only, on a counter of its own). Each reading also
// counts the request that takes it.
func TestStatszInFlightAgreesWithMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{}) // Adds publish gens 1 and 2
	parked := make(chan int, 1)
	go func() {
		status, _ := getWatch(t, ts.URL+"/watch?since=2&timeout_ms=5000")
		parked <- status
	}()
	for deadline := time.Now().Add(3 * time.Second); s.metrics.watchSubscribers.Value() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the /watch long poll never parked")
		}
		time.Sleep(time.Millisecond)
	}

	status, body := get(t, ts, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("/statsz status = %d", status)
	}
	var st Statsz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	gauge := findSample(t, scrape(t, ts), "pimento_http_in_flight", "pimento_http_in_flight", nil)
	if st.InFlight != 2 || gauge != 2 {
		t.Errorf("in flight: /statsz %d, /metrics %v; want 2 from both (the parked /watch + the reading request)",
			st.InFlight, gauge)
	}
	if st.WatchSubscribers != 1 {
		t.Errorf("/statsz watch_subscribers = %d, want 1", st.WatchSubscribers)
	}

	putDoc(t, ts, "late", carsXML) // wakes the poller
	if status := <-parked; status != http.StatusOK {
		t.Errorf("woken /watch status = %d", status)
	}
}

// TestSlowQueryLog checks the slow-query pipeline end to end: a fresh
// execution past the threshold is logged (with query, plan and
// per-operator stats), a cache hit of the same request is not, and
// Close flushes the logger.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	capture := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, ts := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // every execution is "slow"
		SlowQueryLog:       capture,
	})
	req := SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3}
	post(t, ts, "/search", req) // MISS: executes, logs
	post(t, ts, "/search", req) // HIT: served from cache, must not log
	s.Close()                   // flush the logging goroutine

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow-query log has %d entries, want 1 (the MISS):\n%s",
			len(lines), strings.Join(lines, "\n"))
	}
	line := lines[0]
	// The query is %q-escaped in the line, so match quote-free fragments.
	for _, want := range []string{"price < 2000", "scan(car)", "in=", "wall="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q:\n%s", want, line)
		}
	}
	if got := s.metrics.slowTotal.Value(); got != 1 {
		t.Errorf("pimento_slow_queries_total = %d, want 1", got)
	}
	if got := s.metrics.slowDropped.Value(); got != 0 {
		t.Errorf("pimento_slow_queries_dropped_total = %d, want 0", got)
	}
}

// TestSlowLogClose pins the close semantics: Close is idempotent, the
// logging goroutine exits (the stress suite's leak gate depends on
// it), and a post-Close observe drops instead of panicking on the
// closed channel.
func TestSlowLogClose(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{SlowQueryThreshold: time.Millisecond})
	s.slowlog.observe(slowQuery{Doc: "d", Query: "q", Elapsed: time.Second})
	s.Close()
	s.Close() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("slow-query goroutine leaked: %d goroutines before, %d after Close",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	dropped := s.metrics.slowDropped.Value()
	s.slowlog.observe(slowQuery{Doc: "d", Query: "q", Elapsed: time.Second})
	if got := s.metrics.slowDropped.Value(); got != dropped+1 {
		t.Errorf("post-Close observe: dropped %d -> %d, want +1", dropped, got)
	}
}
