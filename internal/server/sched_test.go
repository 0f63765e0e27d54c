package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// occupySlot grabs the pool's only worker slot directly, so the next
// search request must queue (or shed, with no waiting room). Returns
// the release func.
func occupySlot(t *testing.T, s *Server) func() {
	t.Helper()
	release, err := s.Pool().Acquire(context.Background())
	if err != nil {
		t.Fatalf("occupy slot: %v", err)
	}
	return release
}

// searchReq is a fresh uncacheable request (cache hits bypass
// admission, so shedding tests must force execution).
func searchReq() SearchRequest {
	return SearchRequest{Doc: "cars", Query: carsQuery, K: 3, NoCache: true}
}

// TestSchedQueueFullSheds pins the overload contract: with one worker
// busy and no waiting room, a search is shed with 503, a Retry-After
// hint, and the overloaded error class — and the very same request
// succeeds once the slot frees.
func TestSchedQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1, PoolQueue: -1})
	release := occupySlot(t, s)

	status, hdr, body := post(t, ts, "/search", searchReq())
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body %s, want 503", status, body)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1,60]", hdr.Get("Retry-After"))
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "overloaded" {
		t.Errorf("error kind = %q (%v), want overloaded", er.Kind, err)
	}

	release()
	status, _, body = post(t, ts, "/search", searchReq())
	if status != http.StatusOK {
		t.Fatalf("after release: status = %d body %s, want 200", status, body)
	}

	st := s.Snapshot()
	if st.Shed != 1 {
		t.Errorf("statsz shed = %d, want 1", st.Shed)
	}
	if st.Sched.ShedQueueFull != 1 {
		t.Errorf("sched stats = %+v, want shed_queue_full 1", st.Sched)
	}
}

// TestSchedWaitBoundSheds: a request that queues past PoolMaxWait is
// throttled with 429 + Retry-After rather than waiting forever.
func TestSchedWaitBoundSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1, PoolMaxWait: 20 * time.Millisecond})
	release := occupySlot(t, s)
	defer release()

	status, hdr, body := post(t, ts, "/search", searchReq())
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "throttled" {
		t.Errorf("error kind = %q (%v), want throttled", er.Kind, err)
	}
	if st := s.Snapshot(); st.Sched.ShedWait != 1 {
		t.Errorf("sched stats = %+v, want shed_wait 1", st.Sched)
	}
}

// TestSchedDeadlineWhileQueued: the request's own timeout_ms keeps
// ticking in the waiting room; expiry there is a 504, not a hang.
func TestSchedDeadlineWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1})
	release := occupySlot(t, s)
	defer release()

	req := searchReq()
	req.TimeoutMS = 30
	status, _, body := post(t, ts, "/search", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s, want 504", status, body)
	}
	if st := s.Snapshot(); st.Sched.Abandoned != 1 {
		t.Errorf("sched stats = %+v, want abandoned 1", st.Sched)
	}
}

// TestSchedCancelWhileQueued: a client that disconnects while its
// request sits in the waiting room abandons the queue slot; the server
// accounts it as canceled (499 class), and the pool is healthy after.
func TestSchedCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1})
	release := occupySlot(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(searchReq())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/search",
		bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Give the request time to enter the queue, then hang up. The worker
	// slot stays occupied until the abandonment is recorded, so the
	// queued request's only exit is via its (cancelled) context.
	waitFor(t, func() bool { return s.Pool().Stats().Queued == 1 })
	cancel()
	if err := <-done; err == nil {
		t.Error("cancelled request returned no client error")
	}
	waitFor(t, func() bool {
		st := s.Snapshot()
		return st.Canceled == 1 && st.Sched.Abandoned == 1
	})
	release()
	// The pool must be fully drained: the abandoned request gave back
	// its queue slot, the occupier its worker slot.
	if st := s.Pool().Stats(); st.Running != 0 || st.Queued != 0 {
		t.Errorf("pool not drained: %+v", st)
	}
}

// waitFor polls cond for up to ~2s; the handler finishes asynchronously
// after a client disconnect, so counters are eventually consistent.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResolvedParallelismInResponse: the planner, not the request,
// picks the worker count, and the response reports what ran. On the
// small cars document auto stays sequential even with GOMAXPROCS raised
// (the oversubscription fix); on the multi-megabyte XMark document,
// above the node threshold, it runs several workers and returns exactly
// the answers of the sequential engine.
func TestResolvedParallelismInResponse(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	s, ts := newTestServer(t, Config{})
	search := func(req SearchRequest) SearchResponse {
		t.Helper()
		status, _, body := post(t, ts, "/search", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d body %s", req.Doc, status, body)
		}
		return decodeSearch(t, body)
	}
	if small := search(searchReq()); small.Parallelism != 1 || small.Workers != 1 {
		t.Errorf("cars: parallelism %d, workers %d; want 1 and 1", small.Parallelism, small.Workers)
	}

	req := SearchRequest{Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`,
		Profile: personProfile(4), K: 10, NoCache: true}
	big := search(req)
	if big.Parallelism != 4 || big.Workers < 2 {
		t.Fatalf("xmark: parallelism %d, workers %d; want 4 and at least 2", big.Parallelism, big.Workers)
	}
	entry, _ := s.reg.Snapshot().Entry("xmark")
	prof, err := profile.ParseProfile(req.Profile)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := engine.FromParts(entry.Document(), entry.Index()).Search(engine.Request{
		Query: tpq.MustParse(req.Query), Profile: prof, K: req.K, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]SearchResult, 0, len(seq.Results))
	for _, r := range seq.Results {
		want = append(want, SearchResult{Doc: req.Doc, Node: uint32(r.Node), Path: r.Path, S: r.S, K: r.K, Snippet: r.Snippet})
	}
	got, _ := json.Marshal(big.Results)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("%d-worker answers differ from the sequential engine's\n got %s\nwant %s", big.Workers, got, wantJSON)
	}
}

// TestStatszSchedBlock: /statsz always carries the scheduler block.
func TestStatszSchedBlock(t *testing.T) {
	_, ts := newTestServer(t, Config{PoolWorkers: 2})
	post(t, ts, "/search", searchReq())
	_, body := get(t, ts, "/statsz")
	var st Statsz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Sched.Workers != 2 {
		t.Fatalf("statsz sched = %+v, want workers 2", st.Sched)
	}
	if st.Sched.Admitted+st.Sched.AdmittedQueued < 1 {
		t.Errorf("statsz sched admissions = %+v, want at least one", st.Sched)
	}
}

// TestSchedCacheBypass: cache hits are served without consuming a
// worker slot — only fresh executions pass through admission.
func TestSchedCacheBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{PoolWorkers: 1, PoolQueue: -1})

	warm := SearchRequest{Doc: "cars", Query: carsQuery, K: 3}
	if status, _, body := post(t, ts, "/search", warm); status != http.StatusOK {
		t.Fatalf("warm: status %d body %s", status, body)
	}

	release := occupySlot(t, s)
	defer release()
	status, hdr, body := post(t, ts, "/search", warm)
	if status != http.StatusOK {
		t.Fatalf("hit under full pool: status %d body %s, want 200", status, body)
	}
	if got := hdr.Get("X-Cache"); got != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", got)
	}
}
