// Named-profile tests: the /profiles CRUD contract, vet-on-write, the
// fingerprint-dedup acceptance criterion (N names over one body share
// one stored profile, one analysis verdict and one result-cache key
// space), and a fixed-seed concurrent register/search/delete stress
// walk (gated by `make race`).
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
)

// putProfile PUTs raw profile DSL under /profiles/{name}.
func putProfile(t testing.TB, ts *httptest.Server, name, src string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/profiles/"+name, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("PUT /profiles/%s: %v", name, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// getProfile GETs /profiles/{name}.
func getProfile(t testing.TB, ts *httptest.Server, name string) (int, []byte) {
	t.Helper()
	return get(t, ts, "/profiles/"+name)
}

// deleteProfile DELETEs /profiles/{name}.
func deleteProfile(t testing.TB, ts *httptest.Server, name string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/profiles/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("DELETE /profiles/%s: %v", name, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func decodeProfile(t testing.TB, data []byte) ProfileResponse {
	t.Helper()
	var pr ProfileResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("bad profile response %q: %v", data, err)
	}
	return pr
}

func TestProfileCRUDContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Create: 201 with the body's fingerprint.
	status, body := putProfile(t, ts, "alice", carsProfile)
	if status != http.StatusCreated {
		t.Fatalf("PUT new profile = %d, body %s", status, body)
	}
	pr := decodeProfile(t, body)
	if !pr.Created || pr.Name != "alice" || pr.Fingerprint == "" {
		t.Fatalf("create response = %+v", pr)
	}
	fp := pr.Fingerprint

	// Idempotent re-put: 200, same fingerprint.
	if status, body = putProfile(t, ts, "alice", carsProfile); status != http.StatusOK {
		t.Fatalf("re-PUT = %d, body %s", status, body)
	}
	if pr = decodeProfile(t, body); pr.Created || pr.Fingerprint != fp {
		t.Fatalf("re-put response = %+v", pr)
	}

	// GET echoes the registered source and share count.
	status, body = getProfile(t, ts, "alice")
	if status != http.StatusOK {
		t.Fatalf("GET = %d, body %s", status, body)
	}
	if pr = decodeProfile(t, body); pr.Source != carsProfile || pr.Shared != 1 || pr.Fingerprint != fp {
		t.Fatalf("GET response = %+v", pr)
	}

	// List.
	putProfile(t, ts, "bob", carsProfile)
	status, body = get(t, ts, "/profiles")
	var list ProfilesResponse
	if status != http.StatusOK || json.Unmarshal(body, &list) != nil {
		t.Fatalf("GET /profiles = %d, body %s", status, body)
	}
	if len(list.Profiles) != 2 || list.Distinct != 1 ||
		list.Profiles[0].Name != "alice" || list.Profiles[1].Name != "bob" {
		t.Fatalf("list = %+v", list)
	}

	// Delete: 200 once, 404 after; the shared body survives under bob.
	if status, _ = deleteProfile(t, ts, "alice"); status != http.StatusOK {
		t.Fatalf("DELETE = %d", status)
	}
	if status, _ = deleteProfile(t, ts, "alice"); status != http.StatusNotFound {
		t.Fatalf("re-DELETE = %d, want 404", status)
	}
	if status, _ = getProfile(t, ts, "alice"); status != http.StatusNotFound {
		t.Fatalf("GET deleted = %d, want 404", status)
	}
	if status, body = getProfile(t, ts, "bob"); status != http.StatusOK {
		t.Fatalf("GET surviving name = %d, body %s", status, body)
	}
}

func TestProfilePutRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name       string
		profName   string
		source     string
		wantStatus int
		wantKind   string
	}{
		{"reserved name", "*", carsProfile, http.StatusBadRequest, "parse"},
		{"malformed source", "ok", "sr ???", http.StatusBadRequest, "parse"},
		// A parse failure that quotes the user's own "[P001]" is still a
		// parse failure, not the duplicate-identifier veto.
		{"malformed source citing P001", "ok", "[P001] nonsense", http.StatusBadRequest, "parse"},
		{"vet rejection", "ok", ambiguousProfile, http.StatusBadRequest, "vet"},
		{"oversized body", "ok", "# " + strings.Repeat("x", maxBodyBytes) + "\n" + carsProfile, http.StatusRequestEntityTooLarge, "parse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := putProfile(t, ts, tc.profName, tc.source)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", status, tc.wantStatus, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Kind != tc.wantKind {
				t.Errorf("kind = %q (err %v), want %q; body %s", er.Kind, err, tc.wantKind, body)
			}
			if s.Profiles().Len() != 0 {
				t.Fatalf("rejected put registered a name: %d bindings", s.Profiles().Len())
			}
		})
	}
}

// TestProfileVetOnWrite: a profile POST /lint flags with an
// error-severity diagnostic is rejected at registration with those
// diagnostics — the "error ⇔ Search rejects" contract extended to
// "error ⇔ registration rejects". A name that never registered can
// then never fail profile-scoped analysis at query time.
func TestProfileVetOnWrite(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := putProfile(t, ts, "ambig", ambiguousProfile)
	if status != http.StatusBadRequest {
		t.Fatalf("vet-rejected put = %d, body %s", status, body)
	}
	var rej ProfileRejection
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatalf("bad rejection body %q: %v", body, err)
	}
	if rej.Kind != "vet" || rej.Errors != 1 {
		t.Fatalf("rejection = %+v", rej)
	}
	found := false
	for _, d := range rej.Diagnostics {
		if d.ID == analysis.DiagVORAmbiguous {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejection diagnostics missing %s: %s", analysis.DiagVORAmbiguous, body)
	}

	// The name never registered, so searching by it is a 404 — not a
	// query-time analysis failure.
	status, _, body = post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, ProfileName: "ambig", K: 3,
	})
	if status != http.StatusNotFound {
		t.Fatalf("search by rejected name = %d, body %s", status, body)
	}
}

// TestProfileDedupSharesVerdictAndCache is the PR's acceptance
// criterion: registering N names over one body yields one stored
// profile, one analysis-cache fill, and one shared result-cache key
// space — a search under any of the names warms the cache for all.
func TestProfileDedupSharesVerdictAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	missesBefore := s.AnalysisCache().Stats().Misses

	for _, name := range []string{"alice", "bob", "carol"} {
		if status, body := putProfile(t, ts, name, carsProfile); status != http.StatusCreated {
			t.Fatalf("PUT %s = %d, body %s", name, status, body)
		}
	}
	if d := s.Profiles().Distinct(); d != 1 {
		t.Fatalf("distinct bodies = %d, want 1", d)
	}
	if fills := s.AnalysisCache().Stats().Misses - missesBefore; fills != 1 {
		t.Fatalf("analysis fills for 3 names over one body = %d, want 1", fills)
	}

	// One search under alice fills the result cache for bob and carol:
	// the cache key folds the resolved profile content, never the name.
	req := SearchRequest{Doc: "cars", Query: carsQuery, ProfileName: "alice", K: 3}
	status, hdr, first := post(t, ts, "/search", req)
	if status != http.StatusOK || hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("search as alice = %d, X-Cache %q, body %s", status, hdr.Get("X-Cache"), first)
	}
	req.ProfileName = "bob"
	status, hdr, second := post(t, ts, "/search", req)
	if status != http.StatusOK || hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("search as bob = %d, X-Cache %q, body %s", status, hdr.Get("X-Cache"), second)
	}
	if !bytes.Equal(stablePart(t, first), stablePart(t, second)) {
		t.Fatalf("shared-cache payloads differ:\n%s\nvs\n%s", first, second)
	}
}

// TestProfileNameInlineEquivalence: a search by registered name is the
// same request as the identical inline profile — same payload, same
// result-cache entry.
func TestProfileNameInlineEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts, "alice", carsProfile)

	status, hdr, inline := post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3,
	})
	if status != http.StatusOK || hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("inline search = %d, X-Cache %q", status, hdr.Get("X-Cache"))
	}
	status, hdr, named := post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, ProfileName: "alice", K: 3,
	})
	if status != http.StatusOK {
		t.Fatalf("named search = %d, body %s", status, named)
	}
	if hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("named search X-Cache = %q, want HIT of the inline entry", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(normalizePayload(t, inline), normalizePayload(t, named)) {
		t.Fatalf("inline vs named payloads differ:\n%s\nvs\n%s", inline, named)
	}
}

func TestProfileNameSearchErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts, "alice", carsProfile)

	// Unknown name: 404, classified not_found.
	status, _, body := post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, ProfileName: "nobody", K: 3,
	})
	if status != http.StatusNotFound {
		t.Fatalf("unknown profile_name = %d, body %s", status, body)
	}
	var e struct{ Kind string }
	if json.Unmarshal(body, &e) != nil || e.Kind != "not_found" {
		t.Fatalf("error body = %s, want kind not_found", body)
	}

	// profile and profile_name are mutually exclusive.
	status, _, body = post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, Profile: carsProfile, ProfileName: "alice", K: 3,
	})
	if status != http.StatusBadRequest {
		t.Fatalf("profile+profile_name = %d, body %s", status, body)
	}
}

// TestProfileRebindChangesCacheKey: rebinding a name to a new body
// routes subsequent searches to a different result-cache entry — the
// key follows content, not the name.
func TestProfileRebindChangesCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts, "alice", carsProfile)

	req := SearchRequest{Doc: "cars", Query: carsQuery, ProfileName: "alice", K: 3}
	if _, hdr, _ := post(t, ts, "/search", req); hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("first search X-Cache = %q", hdr.Get("X-Cache"))
	}
	if _, hdr, _ := post(t, ts, "/search", req); hdr.Get("X-Cache") != "HIT" {
		t.Fatalf("warm search X-Cache = %q", hdr.Get("X-Cache"))
	}

	// Rebind alice to a different (clean) body.
	rebound := `
kor w9: x.tag = car & y.tag = car & ftcontains(x, "low mileage") => x < y
rank K,V,S
`
	if status, body := putProfile(t, ts, "alice", rebound); status != http.StatusOK {
		t.Fatalf("rebind = %d, body %s", status, body)
	}
	if _, hdr, _ := post(t, ts, "/search", req); hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("post-rebind search X-Cache = %q, want MISS (new content, new key)", hdr.Get("X-Cache"))
	}
}

// TestRegistryStress (gated by `make race`) is a fixed-seed
// concurrent register/search-by-name/delete walk. Every response must
// be a clean, classified outcome (no 5xx), and no goroutines may leak
// once the traffic stops. Run it under -race; that is the point.
func TestRegistryStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{CacheSize: 16})

	bodies := []string{carsProfile, `
kor w9: x.tag = car & y.tag = car & ftcontains(x, "low mileage") => x < y
rank K,V,S
`, `
kor w8: x.tag = car & y.tag = car & ftcontains(x, "good condition") => x < y
rank V,K,S
`}
	names := []string{"alice", "bob", "carol", "dave"}

	before := runtime.NumGoroutine()

	const (
		workers = 8
		steps   = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(4) {
				case 0:
					status, body := putProfile(t, ts, name, bodies[rng.Intn(len(bodies))])
					if status != http.StatusCreated && status != http.StatusOK {
						t.Errorf("PUT %s = %d, body %s", name, status, body)
					}
				case 1:
					if status, body := deleteProfile(t, ts, name); status != http.StatusOK && status != http.StatusNotFound {
						t.Errorf("DELETE %s = %d, body %s", name, status, body)
					}
				default:
					status, _, body := post(t, ts, "/search", SearchRequest{
						Doc: "cars", Query: carsQuery, ProfileName: name, K: 3,
					})
					// The name may or may not be bound at this instant; both
					// outcomes are legal — anything else is a bug.
					if status != http.StatusOK && status != http.StatusNotFound {
						t.Errorf("search as %s = %d, body %s", name, status, body)
					}
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()

	// Registry invariants after the dust settles.
	st := s.Profiles().Stats()
	if st.Distinct > len(bodies) || st.Names > len(names) {
		t.Errorf("registry stats out of bounds: %+v", st)
	}

	// Goroutine-leak check (same settle loop as TestServerStress).
	if tr, ok := ts.Client().Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before stress, %d after settle\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
