// Sharded fan-out tests: the degraded-response contract (slow shard →
// 200 with "degraded": true, healthy results intact, never cached),
// the sharded-vs-unsharded byte-identity differential, the fan-out's
// use of the shared analysis cache, and the regression pin for the
// pre-admission option rejection.
package server

import (
	"bytes"
	"encoding/json"
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

// TestFanoutUsesAnalysisCache: the fan-out passes the same memoized gate
// a single-document search does. N identical-profile fan-outs that
// bypass the result cache cost one profile verdict and one query
// verdict in total — 2 misses, then 2 hits per repeat — where the
// fan-out used to re-derive the encoding on every request and never
// touch the cache (0 and 0).
func TestFanoutUsesAnalysisCache(t *testing.T) {
	s, ts := newFanoutServer(t, Config{})
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
