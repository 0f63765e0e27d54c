// Live-corpus tests: the PUT/DELETE /docs/{name} contract, the
// differential "mutate then query == rebuild then query" equivalence
// suite, and the cache-precision properties (targeted invalidation
// never over- or under-evicts).
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/xmark"
)

// putDoc PUTs raw XML under /docs/{name}.
func putDoc(t testing.TB, ts *httptest.Server, name, src string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/docs/"+name, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("PUT /docs/%s: %v", name, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// deleteDoc DELETEs /docs/{name}.
func deleteDoc(t testing.TB, ts *httptest.Server, name string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/docs/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE /docs/%s: %v", name, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func decodeMutate(t testing.TB, data []byte) MutateResponse {
	t.Helper()
	var mr MutateResponse
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatalf("bad mutate response %q: %v", data, err)
	}
	return mr
}

// smallXMark returns a compact generated XMark document's XML, small
// enough to rebuild a reference server per mutation step.
func smallXMark(seed int64) string {
	return xmark.GenerateSized(xmark.Config{Seed: seed}, 24*1024).XMLString()
}

func TestPutDeleteDocContract(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	baseGen := s.Snapshot().Generation
	if baseGen != 2 {
		t.Fatalf("generation after 2 adds = %d, want 2", baseGen)
	}

	// Create: 201, generation bumps, node count reported.
	status, body := putDoc(t, ts, "lot", carsXML)
	if status != http.StatusCreated {
		t.Fatalf("PUT new doc status = %d, body %s", status, body)
	}
	mr := decodeMutate(t, body)
	if !mr.Created || mr.Op != "put" || mr.Gen != baseGen+1 || mr.Nodes == 0 {
		t.Fatalf("create response = %+v", mr)
	}

	// Replace: 200, fresh generation.
	status, body = putDoc(t, ts, "lot", smallXMark(3))
	if status != http.StatusOK {
		t.Fatalf("PUT replace status = %d, body %s", status, body)
	}
	if mr = decodeMutate(t, body); mr.Created || mr.Gen != baseGen+2 {
		t.Fatalf("replace response = %+v", mr)
	}

	// The new document is immediately searchable.
	status, _, data := post(t, ts, "/search", SearchRequest{Doc: "lot", Keywords: "the", K: 3})
	if status != http.StatusOK {
		t.Fatalf("search replaced doc = %d, body %s", status, data)
	}

	// GET /docs lists it with the live generation.
	status, body = get(t, ts, "/docs")
	var dr DocsResponse
	if status != http.StatusOK || json.Unmarshal(body, &dr) != nil {
		t.Fatalf("GET /docs = %d, body %s", status, body)
	}
	if dr.Gen != baseGen+2 || !contains(dr.Docs, "lot") || len(dr.Docs) != 3 {
		t.Fatalf("GET /docs = %+v, want 3 docs incl. lot at gen %d", dr, baseGen+2)
	}

	// Delete: 200 once, 404 after.
	if status, body = deleteDoc(t, ts, "lot"); status != http.StatusOK {
		t.Fatalf("DELETE status = %d, body %s", status, body)
	}
	if mr = decodeMutate(t, body); mr.Op != "delete" || mr.Gen != baseGen+3 {
		t.Fatalf("delete response = %+v", mr)
	}
	if status, _ = deleteDoc(t, ts, "lot"); status != http.StatusNotFound {
		t.Fatalf("re-DELETE status = %d, want 404", status)
	}
	if status, _, _ = post(t, ts, "/search", SearchRequest{Doc: "lot", Keywords: "the"}); status != http.StatusNotFound {
		t.Fatalf("search deleted doc = %d, want 404", status)
	}

	// Names the API cannot address are rejected before any state change.
	for _, name := range []string{"*", "a%2Fb"} {
		if status, body = putDoc(t, ts, name, carsXML); status != http.StatusBadRequest {
			t.Errorf("PUT %q status = %d (%s), want 400", name, status, body)
		}
	}
	if got := s.Snapshot().Generation; got != baseGen+3 {
		t.Fatalf("rejected mutations moved the generation: %d, want %d", got, baseGen+3)
	}

	st := s.Snapshot()
	if st.Mutation.Puts != 2 || st.Mutation.Deletes != 1 || st.Mutation.Rejected < 3 {
		t.Fatalf("mutation stats = %+v", st.Mutation)
	}
}

func TestPutDocRejectsMalformedAndOversized(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxDocBytes: 2048})
	gen := s.Snapshot().Generation
	warm := func() []byte {
		_, _, data := post(t, ts, "/search", SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile})
		return stablePart(t, data)
	}
	before := warm()

	// Malformed XML: 400 with a parse diagnostic, nothing mutated.
	status, body := putDoc(t, ts, "cars", "<open><unclosed>")
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("parse")) {
		t.Fatalf("malformed PUT = %d, body %s", status, body)
	}
	// Oversized body: 413.
	if status, body = putDoc(t, ts, "big", "<a>"+strings.Repeat("x", 4096)+"</a>"); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT = %d, body %s", status, body)
	}

	if got := s.Snapshot().Generation; got != gen {
		t.Fatalf("rejected PUTs moved the generation %d -> %d", gen, got)
	}
	// The cached entry for cars survived (rejections invalidate nothing)
	// and still serves identical bytes.
	if after := warm(); !bytes.Equal(before, after) {
		t.Fatalf("rejected PUT changed served bytes:\n%s\nvs\n%s", before, after)
	}
}

// TestUncleanResourcePathsRejected pins the FuzzDocUpdate finding: a
// name ServeMux would clean away ("." and ".." segments, empty
// segments) used to draw the mux's 301 with an HTML body. It is a JSON
// 400 like any other bad name, counted as a rejection, and mutates
// nothing — on /docs and on /profiles alike.
func TestUncleanResourcePathsRejected(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	gen := s.Snapshot().Generation
	for _, tc := range []struct {
		method, path string
		counter      interface{ Value() int64 }
	}{
		{http.MethodPut, "/docs/.", s.metrics.mutations[[2]string{"put", "rejected"}]},
		{http.MethodPut, "/docs/..", s.metrics.mutations[[2]string{"put", "rejected"}]},
		{http.MethodPut, "/docs/a//b", s.metrics.mutations[[2]string{"put", "rejected"}]},
		{http.MethodPut, "/docs/cars/.", s.metrics.mutations[[2]string{"put", "rejected"}]},
		{http.MethodDelete, "/docs/.", s.metrics.mutations[[2]string{"delete", "rejected"}]},
		{http.MethodDelete, "/docs/cars/..", s.metrics.mutations[[2]string{"delete", "rejected"}]},
		{http.MethodPut, "/profiles/.", s.metrics.registryRequests[[2]string{"put", "rejected"}]},
		{http.MethodGet, "/profiles/..", s.metrics.errors["4xx"]},
		{http.MethodDelete, "/profiles/x//", s.metrics.errors["4xx"]},
	} {
		before := tc.counter.Value()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader("<a/>")))
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusBadRequest || err != nil || er.Kind != "parse" {
			t.Errorf("%s %s = %d %q, want a JSON 400 of kind parse", tc.method, tc.path, rec.Code, rec.Body.Bytes())
		}
		if got := tc.counter.Value(); got != before+1 {
			t.Errorf("%s %s: rejection counter %d -> %d, want +1", tc.method, tc.path, before, got)
		}
	}
	if got := s.Snapshot().Generation; got != gen {
		t.Errorf("rejected paths moved the generation %d -> %d", gen, got)
	}
	if docs := s.Docs(); !contains(docs, "cars") || len(s.Profiles().List()) != 0 {
		t.Errorf("rejected paths changed state: docs %v, profiles %v", docs, s.Profiles().List())
	}
	// A clean path still reaches its route.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/docs/fresh", strings.NewReader("<a/>")))
	if rec.Code != http.StatusCreated {
		t.Errorf("PUT /docs/fresh = %d, want 201", rec.Code)
	}
}

// TestMutationCachePrecision is the satellite property test: a mutation
// drops exactly the entries that depended on the mutated document —
// single-document entries for that name plus every fan-out entry.
// Entries for untouched documents keep serving hits, and a re-PUT of
// byte-identical content still invalidates (generation stamping: the
// old key space is unreachable, so stale bytes cannot be served).
func TestMutationCachePrecision(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	type probe struct {
		name string
		req  SearchRequest
	}
	probes := []probe{
		{"cars", SearchRequest{Doc: "cars", Query: carsQuery, Profile: carsProfile}},
		{"xmark", SearchRequest{Doc: "xmark", Keywords: "United States", K: 3}},
		{"fanout", SearchRequest{Doc: "*", Keywords: "good condition", K: 3}},
	}
	// run returns (X-Cache header, raw payload bytes).
	run := func(p probe) (string, []byte) {
		status, hdr, data := post(t, ts, "/search", p.req)
		if status != http.StatusOK {
			t.Fatalf("probe %s: status %d, body %s", p.name, status, data)
		}
		return hdr.Get("X-Cache"), data
	}
	// want holds the cached body (byte-identical across hits); wantNorm
	// the normalized payload (comparable across distinct executions).
	want, wantNorm := make(map[string][]byte), make(map[string][]byte)
	for _, p := range probes {
		run(p) // warm
		xc, body := run(p)
		if xc != "HIT" {
			t.Fatalf("probe %s not cached after warmup: X-Cache=%s", p.name, xc)
		}
		want[p.name] = stablePart(t, body)
		wantNorm[p.name] = normalizePayload(t, body)
	}

	// Mutate an unrelated document: only the fan-out entry may drop.
	putDoc(t, ts, "other", smallXMark(5))
	for _, p := range probes {
		xc, body := run(p)
		switch p.name {
		case "fanout":
			if xc != "MISS" {
				t.Errorf("fan-out entry survived an unrelated PUT (X-Cache=%s); fan-out results depend on every document", xc)
			}
		default:
			if xc != "HIT" {
				t.Errorf("probe %s over-invalidated by an unrelated PUT (X-Cache=%s)", p.name, xc)
			}
			if !bytes.Equal(stablePart(t, body), want[p.name]) {
				t.Errorf("probe %s bytes changed on a HIT", p.name)
			}
		}
	}

	inv := s.Cache().Stats().Invalidations
	if inv == 0 {
		t.Fatalf("no invalidations counted after a PUT")
	}

	// Re-PUT cars with byte-identical content: same content hash, new
	// generation. The cars entry must MISS (no stale bytes), xmark must
	// still HIT (no over-invalidation).
	putDoc(t, ts, "cars", carsXML)
	xc, body := run(probes[0])
	if xc != "MISS" {
		t.Errorf("cars entry served X-Cache=%s after an identical-content re-PUT; generation stamping must retire the old key space", xc)
	}
	if got := normalizePayload(t, body); !bytes.Equal(got, wantNorm["cars"]) {
		t.Errorf("identical-content re-PUT changed cars results:\n%s\nvs\n%s", got, wantNorm["cars"])
	}
	if xc, _ = run(probes[1]); xc != "HIT" {
		t.Errorf("xmark entry dropped by a cars PUT (X-Cache=%s)", xc)
	}

	// Delete the unrelated doc: untouched single-doc entries survive.
	deleteDoc(t, ts, "other")
	if xc, _ = run(probes[1]); xc != "HIT" {
		t.Errorf("xmark entry dropped by an unrelated DELETE (X-Cache=%s)", xc)
	}
	if got := s.Cache().Stats().Invalidations; got <= inv {
		t.Errorf("invalidations did not grow across mutations: %d -> %d", inv, got)
	}
}

// TestMutateThenQueryEquivalence is the differential suite: a server
// that *mutated* its way to a corpus state must serve byte-identical
// /search responses to a server *rebuilt from scratch* at that state —
// on both the scan and twigjoin access paths, for single-document and
// fan-out queries, across a randomized PUT/DELETE sequence over
// generated XMark documents. Volatile timing fields are normalized;
// everything else (results, scores, paths, plan shape, workers) must
// match exactly.
func TestMutateThenQueryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential equivalence suite is not -short")
	}
	const seed = 20260809
	rng := rand.New(rand.NewSource(seed))

	cfg := Config{}
	live := New(cfg)
	defer live.Close()
	ts := httptest.NewServer(live.Handler())
	defer ts.Close()

	// sources is the doc-content pool; state tracks the live corpus.
	sources := []string{carsXML, smallXMark(1), smallXMark(2), smallXMark(3)}
	names := []string{"d0", "d1", "d2"}
	state := map[string]string{}
	var order []string // insertion order of live names

	apply := func(op, name, src string) {
		if op == "put" {
			status, body := putDoc(t, ts, name, src)
			if status != http.StatusOK && status != http.StatusCreated {
				t.Fatalf("PUT %s: %d %s", name, status, body)
			}
			if _, ok := state[name]; !ok {
				order = append(order, name)
			}
			state[name] = src
			return
		}
		status, _ := deleteDoc(t, ts, name)
		_, existed := state[name]
		if existed != (status == http.StatusOK) {
			t.Fatalf("DELETE %s: status %d, existed %v", name, status, existed)
		}
		delete(state, name)
		for i, n := range order {
			if n == name {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}

	queries := []SearchRequest{
		{Doc: "*", Keywords: "United States", K: 5, Profile: personProfile(2)},
		{Doc: "*", Keywords: "good condition", K: 4},
	}
	perDoc := func(name string) []SearchRequest {
		return []SearchRequest{
			// The planner scans a one-node pattern and twig-joins the
			// two-node one, so both access paths see every mutation.
			{Doc: name, Keywords: "the", K: 5},
			{Doc: name, Query: `//person(*)[.//business[. ftcontains "Yes"]]`, K: 3},
		}
	}

	check := func(step int) {
		if len(state) == 0 {
			return
		}
		// Reference: a fresh server built from scratch at this state.
		ref := New(cfg)
		defer ref.Close()
		for _, n := range order {
			if err := ref.AddXML(n, state[n]); err != nil {
				t.Fatal(err)
			}
		}
		rts := httptest.NewServer(ref.Handler())
		defer rts.Close()

		reqs := append([]SearchRequest{}, queries...)
		for _, n := range order {
			reqs = append(reqs, perDoc(n)...)
		}
		for _, req := range reqs {
			s1, _, d1 := post(t, ts, "/search", req)
			s2, _, d2 := post(t, rts, "/search", req)
			if s1 != s2 {
				t.Fatalf("step %d: status diverged (%d vs %d) for %+v: %s vs %s", step, s1, s2, req, d1, d2)
			}
			if s1 != http.StatusOK {
				continue
			}
			n1, n2 := normalizePayload(t, d1), normalizePayload(t, d2)
			if !bytes.Equal(n1, n2) {
				t.Fatalf("step %d: mutated server diverged from rebuilt server for %+v:\nmutated: %s\nrebuilt: %s",
					step, req, n1, n2)
			}
		}
	}

	// Seed state, then a randomized walk.
	apply("put", "d0", sources[0])
	check(0)
	for step := 1; step <= 8; step++ {
		name := names[rng.Intn(len(names))]
		if _, ok := state[name]; ok && rng.Intn(3) == 0 {
			apply("delete", name, "")
		} else {
			apply("put", name, sources[rng.Intn(len(sources))])
		}
		check(step)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
