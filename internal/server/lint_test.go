package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/analysis"
)

const ambiguousProfile = `
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
rank K,V,S
`

func decodeLint(t testing.TB, data []byte) LintResponse {
	t.Helper()
	var lr LintResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		t.Fatalf("lint response %s: %v", data, err)
	}
	return lr
}

func TestLintCleanProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, body := post(t, ts, "/lint", LintRequest{Profile: carsProfile, Query: carsQuery})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	lr := decodeLint(t, body)
	if !lr.Clean || lr.Errors != 0 {
		t.Fatalf("carsProfile should be clean: %s", body)
	}
	// A profile with no findings at all says so with an empty list, not
	// null: the bytes `pimento vet -json` prints for it, minus the indent.
	_, _, body = post(t, ts, "/lint", LintRequest{Profile: carsProfile})
	if want := `{"clean":true,"errors":0,"diagnostics":[]}` + "\n"; string(body) != want {
		t.Fatalf("clean lint body = %q, want %q", body, want)
	}
}

func TestLintAmbiguousProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, body := post(t, ts, "/lint", LintRequest{Profile: ambiguousProfile})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	lr := decodeLint(t, body)
	if lr.Clean || lr.Errors != 1 {
		t.Fatalf("want one error: %s", body)
	}
	if lr.Counts[analysis.DiagVORAmbiguous] != 1 {
		t.Errorf("counts = %v", lr.Counts)
	}
	d := lr.Diagnostics[0]
	if d.ID != analysis.DiagVORAmbiguous || d.Witness == nil ||
		d.Witness.Kind != analysis.WitnessAlternatingCycle {
		t.Fatalf("diagnostic = %+v", d)
	}
	// The profile with an error diagnostic must be rejected by /search.
	code, _, body = post(t, ts, "/search", SearchRequest{
		Doc: "cars", Query: carsQuery, Profile: ambiguousProfile, K: 3,
	})
	if code == http.StatusOK {
		t.Fatalf("/search accepted a profile /lint flagged as error: %s", body)
	}
}

func TestLintByteStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := LintRequest{Profile: ambiguousProfile + `
kor k: x.tag = car & y.tag = car & ftcontains(x, "bid") & ftcontains(x, "bid") => x < y`,
		Query: carsQuery}
	_, _, first := post(t, ts, "/lint", req)
	for i := 0; i < 3; i++ {
		_, _, again := post(t, ts, "/lint", req)
		if !bytes.Equal(first, again) {
			t.Fatalf("lint output not byte-stable:\n%s\nvs\n%s", first, again)
		}
	}
}

func TestLintDuplicateIdentifier(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, body := post(t, ts, "/lint", LintRequest{Profile: `
sr a: if pc(car, d) then add ftcontains(d, "x")
sr a: if pc(car, d) then remove ftcontains(d, "x")`})
	if code != http.StatusOK {
		t.Fatalf("P001 is a finding, not a bad request: %d %s", code, body)
	}
	lr := decodeLint(t, body)
	if lr.Clean || len(lr.Diagnostics) != 1 || lr.Diagnostics[0].ID != analysis.DiagDuplicateName {
		t.Fatalf("want a single P001: %s", body)
	}
	// Genuinely malformed profiles are still 400s — including one that
	// spells the check ID itself: parse errors quote user input, so the
	// finding is recognized by the parser's error type, never its text.
	for _, src := range []string{"sr ???", "[P001] nonsense"} {
		code, _, body = post(t, ts, "/lint", LintRequest{Profile: src})
		if code != http.StatusBadRequest {
			t.Errorf("malformed profile %q: status = %d, body %s", src, code, body)
		}
	}
	// Missing profile too.
	code, _, _ = post(t, ts, "/lint", LintRequest{Query: carsQuery})
	if code != http.StatusBadRequest {
		t.Errorf("missing profile status = %d", code)
	}
}

func TestExplainIncludesDiagnostics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, body := post(t, ts, "/explain", ExplainRequest{
		Query: carsQuery, Profile: ambiguousProfile,
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var er ExplainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Ambiguous {
		t.Fatalf("explain should flag ambiguity: %s", body)
	}
	found := false
	for _, d := range er.Diagnostics {
		if d.ID == analysis.DiagVORAmbiguous {
			found = true
		}
	}
	if !found {
		t.Fatalf("explain diagnostics missing VOR001: %s", body)
	}
}

// TestAnalysisCacheServesWarmSearches is the PR's acceptance criterion:
// a warm server answers a second /search with the same profile without
// re-running analysis, observable via the cache-hit counters on /statsz
// and /metrics.
func TestAnalysisCacheServesWarmSearches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Different K so the *result* cache can't absorb the second request;
	// only the analysis cache is shared between them.
	for _, k := range []int{3, 5} {
		code, _, body := post(t, ts, "/search", SearchRequest{
			Doc: "cars", Query: carsQuery, Profile: carsProfile, K: k,
		})
		if code != http.StatusOK {
			t.Fatalf("search k=%d: %d %s", k, code, body)
		}
	}

	var st Statsz
	_, body := get(t, ts, "/statsz")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Analysis.Hits == 0 {
		t.Fatalf("second warm search should hit the analysis cache: %s", body)
	}
	if st.Analysis.Misses == 0 || st.Analysis.Entries == 0 {
		t.Fatalf("analysis stats incoherent: %s", body)
	}

	fams := scrape(t, ts)
	fam := fams["pimento_analysis_cache_requests_total"]
	if fam == nil {
		t.Fatal("pimento_analysis_cache_requests_total not exported")
	}
	hits := -1.0
	for _, s := range fam.Samples {
		if s.Labels["outcome"] == "hit" {
			hits = s.Value
		}
	}
	if hits <= 0 {
		t.Fatalf("analysis hit counter = %v on /metrics", hits)
	}
	if fams["pimento_analysis_cache_entries"] == nil {
		t.Fatal("pimento_analysis_cache_entries not exported")
	}
}

// TestDiagnosticsMetrics: lints feed the per-check counters, counted
// once per analyzed profile (cache hits don't re-count).
func TestDiagnosticsMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		post(t, ts, "/lint", LintRequest{Profile: ambiguousProfile})
	}
	fams := scrape(t, ts)
	fam := fams["pimento_diagnostics_total"]
	if fam == nil {
		t.Fatal("pimento_diagnostics_total not exported")
	}
	byCheck := map[string]float64{}
	for _, s := range fam.Samples {
		byCheck[s.Labels["check"]] = s.Value
	}
	if byCheck[analysis.DiagVORAmbiguous] != 1 {
		t.Fatalf("VOR001 count = %v, want 1 (one fill, two cache hits)", byCheck[analysis.DiagVORAmbiguous])
	}
}
