package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// carsXML recreates the paper's Fig. 1 car-sale database.
const carsXML = `
<dealer>
  <car>
    <description>I am selling my 2001 car at the best bid. It is in good condition
      as I was the only driver. I used it to go to work in NYC.</description>
    <date>2001</date>
    <price>500</price>
    <owner>John Smith</owner>
    <color>red</color>
  </car>
  <car>
    <description>Powerful car. Low mileage. Eager seller.</description>
    <description>good condition overall</description>
    <mileage>50000</mileage>
    <price>500</price>
    <location>NYC</location>
    <color>blue</color>
  </car>
  <car>
    <description>american classic in good condition and low mileage</description>
    <price>1800</price>
    <mileage>30000</mileage>
    <color>green</color>
  </car>
</dealer>`

const carsProfile = `
sr p2 priority 1: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
rank K,V,S
`

const carsQuery = `//car[./description[. ftcontains "good condition"] and price < 2000]`

// personProfile builds the Fig. 5 profile DSL with nKORs keyword rules.
func personProfile(nKORs int) string {
	phrases := []string{"male", "United States", "College", "Phoenix"}
	var sb strings.Builder
	for i := 0; i < nKORs && i < len(phrases); i++ {
		fmt.Fprintf(&sb,
			"kor pi%d priority %d: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n",
			i+1, i+1, phrases[i])
	}
	sb.WriteString(`vor pi5: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y` + "\n")
	sb.WriteString("rank K,V,S\n")
	return sb.String()
}

// bigXMark returns a shared multi-megabyte XMark document — large
// enough that a 1ms deadline reliably expires mid-execution.
var bigXMark = sync.OnceValue(func() *xmldoc.Document {
	return xmark.GenerateSized(xmark.Config{Seed: 7}, 4*1024*1024)
})

// newTestServer builds a server with the cars document and a large
// generated XMark document, wrapped in an httptest server.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.AddXML("cars", carsXML); err != nil {
		t.Fatal(err)
	}
	s.Add("xmark", bigXMark())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// post sends a JSON request and returns the status, headers and body.
func post(t testing.TB, ts *httptest.Server, path string, body any) (int, http.Header, []byte) {
	t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case string:
		buf.WriteString(b)
	case []byte:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, data
}

func get(t testing.TB, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func decodeSearch(t testing.TB, data []byte) SearchResponse {
	t.Helper()
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("bad search response %q: %v", data, err)
	}
	return sr
}

// normalizePayload zeroes the volatile fields so payloads from distinct
// executions can be compared byte-for-byte: the wall-clock fields
// (elapsed_us, exec_us, cache_age_ms, the trace spans) and
// total_pruned (under parallel execution the prune count depends on how
// worker interleaving tightens the shared bound — the ranked answers do
// not).
func normalizePayload(t testing.TB, data []byte) []byte {
	t.Helper()
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("bad search response %q: %v", data, err)
	}
	sr.ElapsedUS = 0
	sr.TotalPruned = 0
	sr.ExecUS = 0
	sr.CacheAgeMS = 0
	sr.Trace = nil
	out, err := json.Marshal(&sr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stablePart strips the spliced per-request tail (elapsed_us,
// cache_age_ms) from a /search payload, leaving the cached body — the
// portion the server promises is byte-identical across cache hits.
func stablePart(t testing.TB, data []byte) []byte {
	t.Helper()
	i := bytes.LastIndex(data, []byte(`,"elapsed_us":`))
	if i < 0 {
		t.Fatalf("payload %q has no spliced elapsed_us tail", data)
	}
	return data[:i]
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := get(t, ts, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status = %d, body %s", status, body)
	}
	var h struct {
		Status string `json:"status"`
		Docs   int    `json:"docs"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Docs != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 docs", h)
	}
}

func TestSearchSingleDoc(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, body := post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 5,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	if got := hdr.Get("X-Cache"); got != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", got)
	}
	sr := decodeSearch(t, body)
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	if sr.K != 5 || sr.DocsSearched != 1 {
		t.Errorf("K=%d docs=%d, want 5 and 1", sr.K, sr.DocsSearched)
	}
	if len(sr.AppliedSRs) == 0 {
		t.Error("profile scoping rule was not applied")
	}
	// The best-bid car must lead: the w4 KOR dominates under K,V,S.
	if !strings.Contains(sr.Results[0].Snippet, "best bid") {
		t.Errorf("top result %+v does not contain the KOR phrase", sr.Results[0])
	}
	for _, r := range sr.Results {
		if r.Doc != "cars" || r.Path == "" {
			t.Errorf("result %+v missing doc/path", r)
		}
	}
}

// TestSearchPlanShape: the response's plan field is the executed chain.
// Under rank K,V,S the default plan keys values only behind its K cuts:
// every prune ahead of vor reads K alone and says so.
func TestSearchPlanShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, K: 2, Profile: carsProfile +
			`vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y` + "\n",
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	want := "kor(w4) -> topkPrune(k=2,K) -> vor -> topkPrune(k=2,K,V,S) -> sort(K,V,S) -> topkPrune(k=2,K,V,S,sorted)"
	if sr := decodeSearch(t, body); !strings.HasSuffix(sr.PlanShape, want) {
		t.Errorf("plan = %q, want it to end in %q", sr.PlanShape, want)
	}
}

func TestSearchFanout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/search", SearchRequest{
		Doc: "*", Keywords: "good condition", K: 4,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	sr := decodeSearch(t, body)
	if sr.DocsSearched != 2 {
		t.Errorf("DocsSearched = %d, want 2", sr.DocsSearched)
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results")
	}
	if sr.Results[0].Doc == "" {
		t.Errorf("fan-out result %+v missing doc name", sr.Results[0])
	}
}

func TestSearchCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3}

	before := s.Cache().Stats()
	status1, hdr1, body1 := post(t, ts, "/search", req)
	status2, hdr2, body2 := post(t, ts, "/search", req)
	if status1 != 200 || status2 != 200 {
		t.Fatalf("statuses = %d, %d", status1, status2)
	}
	if hdr1.Get("X-Cache") != "MISS" || hdr2.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q then %q, want MISS then HIT",
			hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(stablePart(t, body1), stablePart(t, body2)) {
		t.Fatalf("cached result payload is not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	after := s.Cache().Stats()
	if after.Hits != before.Hits+1 {
		t.Errorf("cache hits %d -> %d, want +1", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses+1 {
		t.Errorf("cache misses %d -> %d, want +1", before.Misses, after.Misses)
	}

	// The /statsz view must agree.
	_, body := get(t, ts, "/statsz")
	var st Statsz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != after.Hits {
		t.Errorf("statsz cache hits = %d, want %d", st.Cache.Hits, after.Hits)
	}
	if st.Endpoints["search"] < 2 {
		t.Errorf("statsz search requests = %d, want >= 2", st.Endpoints["search"])
	}
}

// TestCacheHitElapsed pins the fix for the cache-hit elapsed bug: HIT
// responses used to replay the leader's marshaled bytes wholesale, so
// their elapsed_ms reported the original execution's time instead of
// the (much smaller) serve time. Now the cached body carries the
// execution's exec_us and trace verbatim — byte-identical across
// requests — while elapsed_us and cache_age_ms are spliced per
// request.
func TestCacheHitElapsed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3}

	_, hdr1, body1 := post(t, ts, "/search", req)
	time.Sleep(20 * time.Millisecond)
	_, hdr2, body2 := post(t, ts, "/search", req)
	if hdr1.Get("X-Cache") != "MISS" || hdr2.Get("X-Cache") != "HIT" {
		t.Fatalf("X-Cache = %q then %q, want MISS then HIT",
			hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}

	// The cached result body replays byte-identically ...
	if !bytes.Equal(stablePart(t, body1), stablePart(t, body2)) {
		t.Fatalf("cached body diverged:\n%s\nvs\n%s", body1, body2)
	}
	// ... but the volatile tail is per-request: the HIT aged at least
	// the 20ms we slept, the MISS has age 0, so full payloads differ.
	if bytes.Equal(body1, body2) {
		t.Fatal("HIT payload is byte-identical to MISS payload — volatile tail not spliced")
	}

	miss := decodeSearch(t, body1)
	hit := decodeSearch(t, body2)
	if miss.ExecUS <= 0 {
		t.Errorf("MISS exec_us = %d, want > 0", miss.ExecUS)
	}
	if hit.ExecUS != miss.ExecUS {
		t.Errorf("HIT exec_us = %d, want the leader's %d", hit.ExecUS, miss.ExecUS)
	}
	if miss.CacheAgeMS != 0 {
		t.Errorf("MISS cache_age_ms = %d, want 0", miss.CacheAgeMS)
	}
	if hit.CacheAgeMS < 10 {
		t.Errorf("HIT cache_age_ms = %d, want >= 10 after a 20ms sleep", hit.CacheAgeMS)
	}
	if len(hit.Trace) == 0 {
		t.Error("HIT lost the execution's pipeline trace")
	}
	// elapsed_us must be this request's serve time, not a replay: both
	// requests measured it independently, and it stays bounded by the
	// request's own wall time rather than the leader's execution.
	if miss.ElapsedUS < miss.ExecUS {
		t.Errorf("MISS elapsed_us %d < exec_us %d; serve time should include execution",
			miss.ElapsedUS, miss.ExecUS)
	}
}

func TestSearchOptionChangesMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3}
	post(t, ts, "/search", base)

	for name, mut := range map[string]func(r SearchRequest) SearchRequest{
		"k":        func(r SearchRequest) SearchRequest { r.K = 4; return r },
		"strategy": func(r SearchRequest) SearchRequest { r.Strategy = "naive"; return r },
		"profile":  func(r SearchRequest) SearchRequest { r.Profile = ""; return r },
	} {
		status, hdr, body := post(t, ts, "/search", mut(base))
		if status != 200 {
			t.Fatalf("%s: status %d body %s", name, status, body)
		}
		if got := hdr.Get("X-Cache"); got != "MISS" {
			t.Errorf("mutated option %s: X-Cache = %q, want MISS", name, got)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxK: 100})
	// Profiles the Section 5 gate rejects: PUT /profiles answers them
	// with 400 "vet", and so must /search — for one document and for the
	// fan-out, which pass the same engine.Personalize.
	const (
		// Each rule removes the predicate the other's condition needs
		// (the cyclicSRs fixture of engine/analysiscache_test.go).
		cyclic = "sr p1: if pc(car, description) & ftcontains(description, \"low mileage\") then remove ftcontains(description, \"good condition\")\n" +
			"sr p3: if pc(car, description) & ftcontains(description, \"good condition\") then remove ftcontains(description, \"low mileage\")\n"
		bothPhrases = `//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"]]`
	)
	cases := []struct {
		name   string
		body   any
		status int
		kind   string
	}{
		{"bad json", `{"doc": cars}`, 400, "parse"},
		{"unknown field", `{"doc":"cars","quary":"//car"}`, 400, "parse"},
		{"no query", SearchRequest{Doc: "cars"}, 400, "parse"},
		{"both query and keywords", SearchRequest{Doc: "cars", Query: "//car", Keywords: "x"}, 400, "parse"},
		{"bad query syntax", SearchRequest{Doc: "cars", Query: "//car[[["}, 400, "parse"},
		{"bad profile", SearchRequest{Doc: "cars", Query: "//car", Profile: "nonsense rule"}, 400, "parse"},
		{"negative k", SearchRequest{Doc: "cars", Query: "//car", K: -1}, 400, "parse"},
		{"huge k", SearchRequest{Doc: "cars", Query: "//car", K: 101}, 400, "parse"},
		{"negative timeout_ms", SearchRequest{Doc: "cars", Query: "//car", TimeoutMS: -5}, 400, "parse"},
		{"bad strategy", SearchRequest{Doc: "cars", Query: "//car", Strategy: "quantum"}, 400, "parse"},
		{"retired push-deep strategy", SearchRequest{Doc: "cars", Query: "//car", Strategy: "push-deep"}, 400, "parse"},
		{"unknown doc", SearchRequest{Doc: "nope", Query: "//car"}, 404, "not_found"},
		// The retired selectors are plain unknown fields now: the planner
		// picks the access path and the worker count.
		{"fanout access", `{"doc":"*","query":"//car","access":"twigjoin"}`, 400, "parse"},
		{"retired access field", `{"doc":"cars","query":"//car","access":"scan"}`, 400, "parse"},
		{"retired parallelism field", `{"doc":"cars","query":"//car","parallelism":2}`, 400, "parse"},
		{"retired twig field", `{"doc":"cars","query":"//car","twig":true}`, 400, "parse"},
		{"retired literal field", `{"doc":"cars","query":"//car","literal":true}`, 400, "parse"},
		{"ambiguous profile", SearchRequest{Doc: "cars", Query: "//car", Profile: ambiguousProfile}, 400, "vet"},
		{"ambiguous profile, fan-out", SearchRequest{Doc: "*", Query: "//car", Profile: ambiguousProfile}, 400, "vet"},
		{"conflict cycle", SearchRequest{Doc: "cars", Query: bothPhrases, Profile: cyclic}, 400, "vet"},
		{"conflict cycle, fan-out", SearchRequest{Doc: "*", Query: bothPhrases, Profile: cyclic}, 400, "vet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := s.Snapshot()
			status, _, body := post(t, ts, "/search", tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", status, tc.status, body)
			}
			// Every row is the client's mistake: one 4xx, never a 5xx.
			after := s.Snapshot()
			if d4, d5 := after.Errors4xx-before.Errors4xx, after.Errors5xx-before.Errors5xx; d4 != 1 || d5 != 0 {
				t.Errorf("errors_4xx moved by %d and errors_5xx by %d, want 1 and 0", d4, d5)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body %q is not JSON: %v", body, err)
			}
			if er.Kind != tc.kind {
				t.Errorf("kind = %q, want %q", er.Kind, tc.kind)
			}
			if er.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestSearchDeadline is the acceptance check: a 1ms deadline against
// the XMark document returns a prompt, clean timeout — not a truncated
// top k and not a full scan.
func TestSearchDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	start := time.Now()
	status, _, body := post(t, ts, "/search", SearchRequest{
		Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`,
		Profile: personProfile(4), K: 10, TimeoutMS: 1,
	})
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s, want 504", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "timeout" || !strings.Contains(er.Error, "deadline exceeded") {
		t.Errorf("error = %+v, want a context.DeadlineExceeded timeout", er)
	}
	// "Promptly": the per-batch checkpoints bound the overrun to far
	// less than a full scan; 500ms is generous for any CI machine.
	if elapsed > 500*time.Millisecond {
		t.Errorf("timeout took %v, want prompt abort", elapsed)
	}
	if got := s.Snapshot().Timeouts; got < 1 {
		t.Errorf("timeouts counter = %d, want >= 1", got)
	}

	// A timed-out execution must not have been cached.
	status2, hdr2, _ := post(t, ts, "/search", SearchRequest{
		Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`,
		Profile: personProfile(4), K: 10,
	})
	if status2 != 200 {
		t.Fatalf("follow-up status = %d", status2)
	}
	if hdr2.Get("X-Cache") != "MISS" {
		t.Errorf("follow-up X-Cache = %q, want MISS (errors are never cached)", hdr2.Get("X-Cache"))
	}
}

func TestExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/explain", ExplainRequest{
		Query: carsQuery, Profile: carsProfile,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var er ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Ambiguous {
		t.Error("profile reported ambiguous")
	}
	if len(er.Flock) < 2 {
		t.Errorf("flock = %v, want the original plus the rewritten query", er.Flock)
	}
	if len(er.Applied) == 0 {
		t.Error("no applied SRs reported")
	}

	status, _, body = post(t, ts, "/explain", ExplainRequest{Query: "//car"})
	if status != 400 {
		t.Errorf("missing profile: status = %d, body %s", status, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search status = %d, want 405", resp.StatusCode)
	}
}

func TestSearchClientCancel(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client has already gone away
	body, _ := json.Marshal(SearchRequest{Doc: "cars", Query: carsQuery})
	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Fatalf("status = %d, body %s, want 499", rec.Code, rec.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != "canceled" {
		t.Errorf("body = %s (err %v), want kind canceled", rec.Body, err)
	}
	if s.Snapshot().Canceled < 1 {
		t.Error("canceled counter did not move")
	}
}

func TestWhitespaceKeywords(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := post(t, ts, "/search", SearchRequest{Doc: "cars", Keywords: "   "})
	if status != 400 {
		t.Fatalf("status = %d, body %s, want 400", status, body)
	}
}

func TestAddXMLError(t *testing.T) {
	s := New(Config{})
	if err := s.AddXML("bad", "<unclosed>"); err == nil {
		t.Fatal("malformed XML accepted")
	}
	if len(s.Docs()) != 0 {
		t.Fatalf("Docs = %v after failed add", s.Docs())
	}
}

func TestExplainParseErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]any{
		"bad json":    `{"query": }`,
		"bad query":   ExplainRequest{Query: "//[", Profile: carsProfile},
		"bad profile": ExplainRequest{Query: "//car", Profile: "gibberish"},
		// Strict like /search and /lint: a misspelt field is an error,
		// not a silently ignored one.
		"unknown field": `{"query":"//car","profile":"rank K,V,S","bogus":1}`,
	} {
		status, _, data := post(t, ts, "/explain", body)
		if status != 400 {
			t.Errorf("%s: status = %d, body %s, want 400", name, status, data)
		}
	}
}

func TestSearchNoCacheBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SearchRequest{Doc: "cars", Query: carsQuery, NoCache: true}
	post(t, ts, "/search", req)
	post(t, ts, "/search", req)
	st := s.Cache().Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("no_cache touched the cache: %+v", st)
	}
}
