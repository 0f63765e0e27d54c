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

// TestParallelismValidationContract: values outside [0, 64] are
// rejected with 400 — never silently clamped — so the accepted surface
// matches what plan honors.
func TestParallelismValidationContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, par := range []int{-1, 65, 1024} {
		req := searchReq()
		req.Parallelism = par
		status, _, body := post(t, ts, "/search", req)
		if status != http.StatusBadRequest {
			t.Errorf("par=%d: status %d body %s, want 400", par, status, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Kind != "parse" {
			t.Errorf("par=%d: error kind %q, want parse", par, er.Kind)
		}
	}
}

// TestResolvedParallelismInResponse: the response reports what actually
// ran. A 0 (auto) request on a small document resolves to 1 even with
// GOMAXPROCS raised — the oversubscription fix — and an explicit
// request is honored.
func TestResolvedParallelismInResponse(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ par, want int }{
		{0, 1}, // auto on a small doc stays sequential
		{2, 2}, // explicit request is honored (within range)
	} {
		req := searchReq()
		req.Parallelism = tc.par
		status, _, body := post(t, ts, "/search", req)
		if status != http.StatusOK {
			t.Fatalf("par=%d: status %d body %s", tc.par, status, body)
		}
		var resp struct {
			Parallelism int `json:"parallelism"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Parallelism != tc.want {
			t.Errorf("par=%d: resolved parallelism %d, want %d", tc.par, resp.Parallelism, tc.want)
		}
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
