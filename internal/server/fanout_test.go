// Sharded fan-out tests: the degraded-response contract (slow shard →
// 200 with "degraded": true, healthy results intact, never cached),
// the sharded-vs-unsharded byte-identity differential, and the
// regression pins for the pre-admission option rejection and the
// execute-path 404.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/corpus"
)

// newFanoutServer builds a server over enough small documents that
// every shard in a 3-way split holds work, avoiding the multi-megabyte
// xmark document so carved shard deadlines stay comfortable.
func newFanoutServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
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

// TestFanoutShardedDifferential: a sharded server and an unsharded
// server answer every fan-out request with byte-identical payloads
// (modulo the volatile timing fields) — the consistent-hash scatter
// and local-top-k merge are invisible to clients.
func TestFanoutShardedDifferential(t *testing.T) {
	_, plain := newFanoutServer(t, Config{})
	_, sharded := newFanoutServer(t, Config{Shards: 3})

	requests := []SearchRequest{
		{Doc: "*", Keywords: "good condition", K: 4},
		{Doc: "*", Query: carsQuery, Profile: carsProfile, K: 3},
		{Doc: "*", Query: `//car[price < 900]`, K: 10},
	}
	for i, req := range requests {
		status, _, want := post(t, plain, "/search", req)
		if status != http.StatusOK {
			t.Fatalf("request %d unsharded = %d, body %s", i, status, want)
		}
		status, _, got := post(t, sharded, "/search", req)
		if status != http.StatusOK {
			t.Fatalf("request %d sharded = %d, body %s", i, status, got)
		}
		var sr SearchResponse
		if err := json.Unmarshal(got, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Degraded || len(sr.TimedOutShards) != 0 {
			t.Fatalf("request %d degraded without load: %s", i, got)
		}
		if !bytes.Equal(normalizePayload(t, want), normalizePayload(t, got)) {
			t.Errorf("request %d payloads diverge\nunsharded %s\n  sharded %s", i, want, got)
		}
	}
}

// TestFanoutDegraded is the degraded-fan-out contract: a shard held
// past its carved deadline is dropped — the response is a 200 with
// "degraded": true and the slow shard listed, the healthy shards'
// results are intact, and the response is never cached.
func TestFanoutDegraded(t *testing.T) {
	s, ts := newFanoutServer(t, Config{Shards: 3, ShardDeadlineFrac: 0.2})

	shards := corpus.ShardNames(s.Docs(), 3)
	slow := -1
	for i, sh := range shards {
		if len(sh) > 0 {
			slow = i
			break
		}
	}
	if slow < 0 {
		t.Fatal("no non-empty shard")
	}
	slowDocs := map[string]bool{}
	for _, name := range shards[slow] {
		slowDocs[name] = true
	}
	s.shardStart = func(shard int) {
		if shard == slow {
			time.Sleep(250 * time.Millisecond) // ≫ the ≈100ms carved budget
		}
	}

	req := SearchRequest{Doc: "*", Keywords: "good condition", K: 10, TimeoutMS: 500}
	status, hdr, body := post(t, ts, "/search", req)
	if status != http.StatusOK {
		t.Fatalf("degraded search = %d, body %s", status, body)
	}
	if hdr.Get("X-Cache") != "" {
		t.Errorf("degraded response carries X-Cache %q — it must bypass the cache", hdr.Get("X-Cache"))
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Degraded || len(sr.TimedOutShards) != 1 || sr.TimedOutShards[0] != slow {
		t.Fatalf("degradation report = degraded=%v timed_out=%v, want shard %d", sr.Degraded, sr.TimedOutShards, slow)
	}
	for _, r := range sr.Results {
		if slowDocs[r.Doc] {
			t.Errorf("result from the dropped shard: %+v", r)
		}
	}
	if wantDocs := len(s.Docs()) - len(shards[slow]); sr.DocsSearched != wantDocs {
		t.Errorf("docs_searched = %d, want %d (healthy shards only)", sr.DocsSearched, wantDocs)
	}

	// Never cached: with the slow shard healed, the identical request is
	// a fresh MISS (a cached degraded body would surface as a HIT) and
	// now covers every shard.
	s.shardStart = nil
	status, hdr, body = post(t, ts, "/search", req)
	if status != http.StatusOK {
		t.Fatalf("healed search = %d, body %s", status, body)
	}
	if hdr.Get("X-Cache") != "MISS" {
		t.Fatalf("healed search X-Cache = %q, want MISS (degraded result must not be cached)", hdr.Get("X-Cache"))
	}
	var healed SearchResponse // fresh: omitted fields must not inherit sr's
	if err := json.Unmarshal(body, &healed); err != nil {
		t.Fatal(err)
	}
	if healed.Degraded || healed.DocsSearched != len(s.Docs()) {
		t.Fatalf("healed search still partial: %s", body)
	}
}

// TestFanoutOptionsRejectedBeforeAdmission is the headline regression:
// fan-out requests carrying the single-document access option are
// 400s from request validation — before the pool
// admits anything and before the single-flight cache registers a miss.
// The check used to live inside execute, where the doomed request had
// already occupied a pool slot and could coalesce followers onto its
// guaranteed failure.
func TestFanoutOptionsRejectedBeforeAdmission(t *testing.T) {
	s, ts := newFanoutServer(t, Config{Shards: 3})
	for _, req := range []SearchRequest{
		{Doc: "*", Keywords: "good condition", Access: "twigjoin"},
		{Doc: "", Keywords: "good condition", Access: "scan"}, // empty doc is a fan-out too
	} {
		status, _, body := post(t, ts, "/search", req)
		if status != http.StatusBadRequest {
			t.Fatalf("%+v = %d, body %s", req, status, body)
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

// TestExecuteUnknownDoc pins the unknown-document status unification:
// both the validation path and the (theoretically unreachable)
// execute-path recheck classify an unknown document as 404/not_found —
// the execute path used to produce a 400.
func TestExecuteUnknownDoc(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// The validation path, over HTTP.
	status, _, body := post(t, ts, "/search", SearchRequest{Doc: "ghost", Keywords: "x"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown doc over HTTP = %d, body %s", status, body)
	}
	var e errorResponse
	if json.Unmarshal(body, &e) != nil || e.Kind != "not_found" {
		t.Fatalf("error body = %s, want kind not_found", body)
	}

	// The execute-path recheck, driven directly: build a valid request,
	// then swap the document name out from under it.
	snap := s.reg.Snapshot()
	sreq := SearchRequest{Doc: "cars", Keywords: "good condition", K: 3}
	req, status, err := s.buildEngineRequest(snap, &sreq)
	if err != nil {
		t.Fatalf("buildEngineRequest: %d %v", status, err)
	}
	sreq.Doc = "ghost"
	_, err = s.execute(context.Background(), snap, &sreq, req)
	var nf *notFoundError
	if !errors.As(err, &nf) {
		t.Fatalf("execute on unknown doc = %v, want *notFoundError", err)
	}
	if st, kind := classifySearchError(err); st != http.StatusNotFound || kind != "not_found" {
		t.Fatalf("classified as %d/%s, want 404/not_found", st, kind)
	}
}

// TestClassifySearchErrors table-tests the error classifier over the
// typed errors the search path produces.
func TestClassifySearchErrors(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{&notFoundError{errors.New("unknown document")}, http.StatusNotFound, "not_found"},
		{fmt.Errorf("wrapped: %w", &notFoundError{errors.New("gone")}), http.StatusNotFound, "not_found"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout"},
		{context.Canceled, 499, "canceled"},
		{errors.New("plain engine failure"), http.StatusInternalServerError, "engine"},
	}
	for _, tc := range cases {
		if st, kind := classifySearchError(tc.err); st != tc.status || kind != tc.kind {
			t.Errorf("classify(%v) = %d/%s, want %d/%s", tc.err, st, kind, tc.status, tc.kind)
		}
	}
}
