// The /watch change feed: a long-poll hub over corpus mutations.
//
// Clients that hold standing personalized queries poll
// GET /watch?since=<gen> and re-run their queries when events arrive.
// The hub keeps a bounded in-order buffer of recent mutations; a client
// whose since-cursor has fallen off the buffer gets resync=true and is
// expected to re-run everything rather than replay a gap. Publishes are
// broadcast by closing (and replacing) a notification channel, so a
// waiting poller costs one parked goroutine and no timers until its
// own deadline fires.
package server

import (
	"net/http"
	"strconv"
	"time"
)

// WatchEvent is one corpus mutation on the wire.
type WatchEvent struct {
	// Gen is the corpus generation the mutation produced; generations
	// are monotone, so clients use the latest seen as their next cursor.
	Gen uint64 `json:"gen"`
	// Op is "put" or "delete".
	Op string `json:"op"`
	// Doc is the mutated document's name.
	Doc string `json:"doc"`
}

// WatchResponse is the GET /watch payload.
type WatchResponse struct {
	// Gen is the corpus generation at response time — the client's next
	// since cursor.
	Gen uint64 `json:"gen"`
	// Events lists the mutations after the request's since cursor, in
	// generation order. Empty on a long-poll timeout.
	Events []WatchEvent `json:"events"`
	// Resync is true when the since cursor predates the hub's retained
	// history: events were dropped, and the client must re-run its
	// standing queries instead of replaying Events as a complete delta.
	Resync bool `json:"resync,omitempty"`
}

// watchHub buffers recent mutations and wakes long-pollers.
type watchHub struct {
	capacity int

	// mu guards everything below. Publishes happen under the server's
	// mutation lock, so events arrive in strictly increasing generation
	// order.
	mu     chan struct{} // 1-buffered semaphore: Lock = receive, Unlock = send
	events []WatchEvent
	gen    uint64        // latest published generation
	notify chan struct{} // closed and replaced on each publish
}

func newWatchHub(capacity int) *watchHub {
	if capacity < 1 {
		capacity = 256
	}
	h := &watchHub{
		capacity: capacity,
		mu:       make(chan struct{}, 1),
		notify:   make(chan struct{}),
	}
	h.mu <- struct{}{}
	return h
}

func (h *watchHub) lock()   { <-h.mu }
func (h *watchHub) unlock() { h.mu <- struct{}{} }

// publish appends a mutation and wakes every waiting poller.
func (h *watchHub) publish(ev WatchEvent) {
	h.lock()
	h.gen = ev.Gen
	h.events = append(h.events, ev)
	if len(h.events) > h.capacity {
		h.events = append(h.events[:0], h.events[len(h.events)-h.capacity:]...)
	}
	close(h.notify)
	h.notify = make(chan struct{})
	h.unlock()
}

// since returns the events after the given cursor, the current
// generation, and whether history before the cursor was dropped.
func (h *watchHub) since(gen uint64) (evs []WatchEvent, latest uint64, resync bool) {
	h.lock()
	defer h.unlock()
	latest = h.gen
	if gen > latest {
		// A cursor from the future — e.g. a client resuming against a
		// restarted server whose generation counter reset — can never be
		// satisfied by waiting: no publish will ever cover the gap below
		// it. Tell the client to resync immediately instead of parking
		// the poll until timeout (regression: TestWatchFutureCursor).
		return nil, latest, true
	}
	if gen == latest {
		return nil, latest, false
	}
	// Something changed past the cursor. If the oldest retained event is
	// not the cursor's immediate successor, the buffer no longer covers
	// the gap — the client must resync.
	if len(h.events) == 0 || h.events[0].Gen > gen+1 {
		resync = true
	}
	for _, ev := range h.events {
		if ev.Gen > gen {
			evs = append(evs, ev)
		}
	}
	return evs, latest, resync
}

// wait returns the channel the next publish closes.
func (h *watchHub) wait() <-chan struct{} {
	h.lock()
	ch := h.notify
	h.unlock()
	return ch
}

// maxWatchWait bounds a long poll regardless of the requested
// timeout_ms, so an idle corpus cannot pin handler goroutines forever.
const maxWatchWait = 55 * time.Second

// handleWatch serves the long poll. ?since=<gen> sets the cursor
// (default 0: everything retained); ?timeout_ms bounds the wait
// (default 30s, capped at maxWatchWait). A poll with no changes returns
// 200 with empty events — clients distinguish "nothing happened" from
// transport errors by status.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "parse", err)
			return
		}
		since = v
	}
	wait := 30 * time.Second
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			s.writeError(w, http.StatusBadRequest, "parse", errTimeoutMS(raw))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > maxWatchWait {
		wait = maxWatchWait
	}

	s.metrics.watchSubscribers.Add(1)
	defer s.metrics.watchSubscribers.Add(-1)

	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		// Snapshot the notify channel BEFORE reading the cursor state, so
		// a publish landing between the read and the wait still wakes us.
		notify := s.watch.wait()
		evs, latest, resync := s.watch.since(since)
		if len(evs) > 0 || resync {
			s.writeJSON(w, http.StatusOK, &WatchResponse{Gen: latest, Events: evs, Resync: resync})
			return
		}
		select {
		case <-notify:
			continue
		case <-timer.C:
			s.writeJSON(w, http.StatusOK, &WatchResponse{Gen: latest, Events: []WatchEvent{}})
			return
		case <-r.Context().Done():
			// Client gone: the 499 counts the cancel; the write is
			// best-effort.
			s.writeError(w, 499, "canceled", r.Context().Err())
			return
		}
	}
}

type errTimeoutMS string

func (e errTimeoutMS) Error() string { return "bad timeout_ms " + strconv.Quote(string(e)) }
