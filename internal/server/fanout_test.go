// Fan-out tests: the fan-out's use of the shared analysis cache and the
// regression pin for the pre-admission option rejection.
package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// newFanoutServer builds a server over six small documents, avoiding
// the multi-megabyte xmark document.
func newFanoutServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{})
	descs := []string{
		"good condition, city car",
		"good condition and best bid welcome",
		"rusty but cheap",
		"good condition, best bid, NYC pickup",
		"best bid, low mileage, good condition",
		"good condition family car",
	}
	for i, d := range descs {
		src := fmt.Sprintf(`<dealer><car><description>%s</description><price>%d</price><color>red</color></car></dealer>`,
			d, 500+100*i)
		if err := s.AddXML(fmt.Sprintf("doc-%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// TestFanoutUsesAnalysisCache: the fan-out passes the same memoized gate
// a single-document search does. N identical-profile fan-outs that
// bypass the result cache cost one profile verdict and one query
// verdict in total — 2 misses, then 2 hits per repeat — where the
// fan-out used to re-derive the encoding on every request and never
// touch the cache (0 and 0).
func TestFanoutUsesAnalysisCache(t *testing.T) {
	s, ts := newFanoutServer(t)
	const n = 5
	before := s.AnalysisCache().Stats()
	for i := 0; i < n; i++ {
		status, _, body := post(t, ts, "/search", SearchRequest{
			Doc: "*", Query: carsQuery, Profile: carsProfile, K: 3, NoCache: true,
		})
		if status != http.StatusOK {
			t.Fatalf("fan-out %d = %d, body %s", i, status, body)
		}
	}
	after := s.AnalysisCache().Stats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 2 || hits != 2*(n-1) {
		t.Errorf("%d fan-outs took %d analysis-cache misses and %d hits, want 2 and %d", n, misses, hits, 2*(n-1))
	}
}

// TestFanoutOptionsRejectedBeforeAdmission is the headline regression:
// fan-out requests carrying an access path are 400s from request
// decoding — before the pool admits anything and before the
// single-flight cache registers a miss. The check once lived inside
// execute, where the doomed request had already occupied a pool slot
// and could coalesce followers onto its guaranteed failure; the field
// is now unknown, so the decoder refuses it.
func TestFanoutOptionsRejectedBeforeAdmission(t *testing.T) {
	s, ts := newFanoutServer(t)
	for _, req := range []string{
		`{"doc":"*","keywords":"good condition","access":"twigjoin"}`,
		`{"doc":"","keywords":"good condition","access":"scan"}`, // empty doc is a fan-out too
	} {
		status, _, body := post(t, ts, "/search", req)
		if status != http.StatusBadRequest {
			t.Fatalf("%s = %d, body %s", req, status, body)
		}
	}
	if ps := s.Pool().Stats(); ps.Admitted != 0 || ps.AdmittedQueued != 0 ||
		ps.ShedQueueFull != 0 || ps.ShedWait != 0 || ps.Abandoned != 0 {
		t.Errorf("rejected requests reached the pool: %+v", ps)
	}
	if cs := s.Cache().Stats(); cs.Misses != 0 || cs.Hits != 0 || cs.Coalesced != 0 {
		t.Errorf("rejected requests touched the result cache: %+v", cs)
	}
}
