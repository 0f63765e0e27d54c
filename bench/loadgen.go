package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client talks to one target over a bounded set of keep-alive
// connections: the generator never opens more than it has CPUs, so on
// a small box it cannot out-schedule the daemon it measures.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. A transport
// failure returns status 0.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == "POST" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// wireResponse is the part of a /search payload the generator reads.
type wireResponse struct {
	Results      []answer `json:"results"`
	DocsSearched int      `json:"docs_searched"`
	Degraded     bool     `json:"degraded"`
}

// sample is one completed search.
type sample struct {
	pool     int32 // which distinct request
	status   int   // HTTP status; 0 = transport error or unreadable body
	docs     int   // docs_searched
	degraded bool
	answers  digest
	rtt      time.Duration // send to last byte of the response; decoding it is the generator's time, not the daemon's
	end      time.Duration // completion, from the start of the drive
	latency  time.Duration // closed loop: rtt; open loop: from when it was due
	late     time.Duration // open loop: how long after it was due it was sent
}

// search sends pool entry i and digests the answer.
func (c *client) search(w *workload, i int32) sample {
	s := sample{pool: i}
	t0 := time.Now()
	status, body, err := c.do("POST", "/search", w.bodies[i])
	s.rtt = time.Since(t0)
	if err != nil {
		return s
	}
	s.status = status
	if status == http.StatusOK {
		var resp wireResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			s.status = 0
			return s
		}
		s.docs, s.degraded, s.answers = resp.DocsSearched, resp.Degraded, digestOf(resp.Results)
	}
	return s
}

// drive sends stream entries first, first+1, ... over w.clients
// connections until limit entries are sent (limit > 0) or the window
// has passed (window > 0). With arrivals it is an open loop: entry
// first+n is due arrivals[n] after the start, whichever connection is
// free sends it no earlier than that, and its latency counts from when
// it was due — so time a request spends waiting for a stalled
// connection is the request's, as it would be a user's. Without
// arrivals it is a closed loop: each connection sends its next request
// when the previous answer is in.
func drive(c *client, w *workload, first, limit int, window time.Duration, arrivals []time.Duration) []sample {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		perConn = make([][]sample, w.clients)
		start   = time.Now()
	)
	for conn := 0; conn < w.clients; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if limit > 0 && n >= limit {
					return
				}
				var due time.Duration
				if arrivals != nil {
					if n >= len(arrivals) {
						return
					}
					due = arrivals[n]
					sleepUntil(start, due)
				} else if window > 0 && time.Since(start) >= window {
					return
				}
				sent := time.Since(start)
				s := c.search(w, w.at(first+n))
				s.end, s.latency = sent+s.rtt, s.rtt
				if arrivals != nil {
					s.late, s.latency = sent-due, s.end-due
				}
				perConn[conn] = append(perConn[conn], s)
			}
		}(conn)
	}
	wg.Wait()
	var all []sample
	for _, ss := range perConn {
		all = append(all, ss...)
	}
	return all
}

// sleepUntil blocks until due after start. It sleeps in the kernel, not
// on a Go timer: an idle Go scheduler waits for timers in epoll_wait,
// whose granularity is a millisecond, and an open loop that sends a
// millisecond late cannot time a 0.2 ms cache hit.
func sleepUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early by less than it would be late
	}
}

// mutationSample is one completed writer slot.
type mutationSample struct {
	ok      bool
	end     time.Duration
	latency time.Duration // from when the slot was due
}

// putDoc replaces (or creates) one document; a refusal is an error.
func (c *client) putDoc(d document) error {
	status, body, err := c.do("PUT", "/docs/"+d.name, []byte(d.body))
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusCreated {
		return fmt.Errorf("PUT /docs/%s: status %d: %s", d.name, status, body)
	}
	return nil
}

// write runs the live_corpus writer's schedule on its own connection:
// each slot replaces one document with its next version, every eighth
// deleting it first so the reader sees a seven-document corpus for a
// moment. Every slot runs, in order, even when the writer falls
// behind, so the final document set depends on the schedule alone; it
// is returned as one version index per document.
func write(c *client, w *workload) ([]mutationSample, []int) {
	final := make([]int, len(w.docs))
	out := make([]mutationSample, 0, len(w.mutations))
	start := time.Now()
	for _, m := range w.mutations {
		sleepUntil(start, m.due)
		d := w.versions[m.version][m.doc]
		ok := true
		if m.deleteFirst {
			status, _, err := c.do("DELETE", "/docs/"+d.name, nil)
			ok = err == nil && status == http.StatusOK
		}
		if c.putDoc(d) != nil {
			ok = false
		}
		end := time.Since(start)
		out = append(out, mutationSample{ok: ok, end: end, latency: end - m.due})
		final[m.doc] = m.version
	}
	return out, final
}
