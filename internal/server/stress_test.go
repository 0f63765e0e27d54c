package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestServerStress hammers one server with concurrent mixed traffic —
// distinct queries and profiles sharing the result cache, plus requests
// whose deadlines expire mid-flight — and checks that
//
//   - every 200 response is complete and byte-identical (modulo
//     elapsed_us) to a reference execution of the same request: the
//     cache and the parallel workers never leak a truncated top k;
//   - every non-200 outcome is a clean, classified timeout;
//   - no goroutines leak once the traffic stops.
//
// Run it under -race; that is the point.
func TestServerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	s, ts := newTestServer(t, Config{CacheSize: 8}) // small cache: force evictions too

	// The request mix: cars with and without profile, xmark keyword and
	// twig queries under increasingly personal profiles, and a fan-out.
	variants := []SearchRequest{
		{Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3},
		{Doc: "cars", Query: carsQuery, K: 2},
		{Doc: "cars", Keywords: "good condition", K: 5},
		{Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`, Profile: personProfile(1), K: 10},
		{Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`, Profile: personProfile(2), K: 10},
		{Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`, Profile: personProfile(4), K: 5},
		{Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`, Profile: personProfile(4), K: 5, Strategy: "interleave-sort"},
		{Doc: "*", Keywords: "good condition", K: 4},
	}

	// Reference payloads: one cold, cache-bypassing execution each.
	refs := make([][]byte, len(variants))
	for i, v := range variants {
		v.NoCache = true
		status, _, body := post(t, ts, "/search", v)
		if status != http.StatusOK {
			t.Fatalf("reference %d: status %d, body %s", i, status, body)
		}
		refs[i] = normalizePayload(t, body)
	}

	before := runtime.NumGoroutine()

	const (
		workers     = 16
		perWorker   = 25
		deadlineMod = 5 // every 5th request carries a 1ms deadline
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				vi := (w + i) % len(variants)
				req := variants[vi]
				timed := i%deadlineMod == 0 && req.Doc == "xmark"
				if timed {
					req.TimeoutMS = 1
				}
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(&req)
				resp, err := ts.Client().Post(ts.URL+"/search", "application/json", &buf)
				if err != nil {
					errs <- fmt.Errorf("worker %d req %d: %v", w, i, err)
					return
				}
				var body bytes.Buffer
				body.ReadFrom(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					got := normalizePayload(t, body.Bytes())
					if !bytes.Equal(got, refs[vi]) {
						errs <- fmt.Errorf("worker %d req %d (variant %d): response diverged from reference\n got %s\nwant %s",
							w, i, vi, got, refs[vi])
						return
					}
				case http.StatusGatewayTimeout:
					if !timed {
						errs <- fmt.Errorf("worker %d req %d (variant %d): unexpected timeout", w, i, vi)
						return
					}
					var er errorResponse
					if err := json.Unmarshal(body.Bytes(), &er); err != nil || er.Kind != "timeout" {
						errs <- fmt.Errorf("worker %d req %d: malformed timeout body %s", w, i, body.Bytes())
						return
					}
				default:
					errs <- fmt.Errorf("worker %d req %d (variant %d): status %d body %s",
						w, i, vi, resp.StatusCode, body.Bytes())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Cache().Stats()
	if st.Hits == 0 {
		t.Error("stress run produced no cache hits")
	}
	if st.Entries > st.Capacity {
		t.Errorf("cache holds %d entries over capacity %d", st.Entries, st.Capacity)
	}

	// Goroutine-leak check: drain idle HTTP conns, then wait for the
	// count to settle back to (near) the pre-stress baseline.
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

// TestMetricsScrapeStress scrapes /metrics continuously while search
// traffic (including slow-query-logged executions and timeouts) is in
// flight. Every scrape must parse as valid exposition format — a
// torn render under concurrent counter updates is a bug — and the
// whole thing runs under -race to catch unsynchronized access between
// Observe and WritePrometheus.
func TestMetricsScrapeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	_, ts := newTestServer(t, Config{
		CacheSize:          8,
		SlowQueryThreshold: time.Microsecond, // exercise the log under load
		SlowQueryLog:       func(string, ...any) {},
	})

	variants := []SearchRequest{
		{Doc: "cars", Query: carsQuery, Profile: carsProfile, K: 3},
		{Doc: "cars", Keywords: "good condition", K: 5},
		{Doc: "xmark", Query: `//person(*)[.//business[. ftcontains "Yes"]]`, Profile: personProfile(2), K: 5},
		{Doc: "*", Keywords: "good condition", K: 4},
	}

	stop := make(chan struct{})
	var searchers, scrapers sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 4; w++ {
		searchers.Add(1)
		go func(w int) {
			defer searchers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := variants[(w+i)%len(variants)]
				if i%7 == 0 && req.Doc == "xmark" {
					req.TimeoutMS = 1
				}
				var buf bytes.Buffer
				json.NewEncoder(&buf).Encode(&req)
				resp, err := ts.Client().Post(ts.URL+"/search", "application/json", &buf)
				if err != nil {
					report(fmt.Errorf("search worker %d: %v", w, err))
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	for sc := 0; sc < 3; sc++ {
		scrapers.Add(1)
		go func(sc int) {
			defer scrapers.Done()
			for i := 0; i < 30; i++ {
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					report(fmt.Errorf("scraper %d: %v", sc, err))
					return
				}
				var body bytes.Buffer
				body.ReadFrom(resp.Body)
				resp.Body.Close()
				if _, err := metrics.ParseExposition(body.String()); err != nil {
					report(fmt.Errorf("scraper %d iteration %d: invalid exposition under load: %v", sc, i, err))
					return
				}
			}
		}(sc)
	}

	// Let the scrapers finish their quota, then stop the traffic.
	done := make(chan struct{})
	go func() { scrapers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Error("scrape stress did not finish in 60s")
	}
	close(stop)
	searchers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
