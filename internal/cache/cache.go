// Package cache is the one single-flight LRU behind every memoizing
// layer: the serving layer's result cache, the engine's analysis-verdict
// cache and the library's WithCache option are all instances of Cache.
//
// Single-flight: when a herd of identical requests arrives, exactly one
// caller (the leader) runs the fill on its own goroutine; the rest
// (followers) block on the leader's completion and share its value. A
// leader's *failure* is never shared — a follower whose leader returned
// an error (say, the leader's own deadline expired) or panicked retries
// and may become the next leader, so a follower with a healthy context
// is never poisoned by a sick one.
//
// Tags are optional invalidation handles: an entry stored under tags is
// dropped by Invalidate of any of them, and an entry tagged TagAll is
// dropped by every Invalidate.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Outcome says how a DoTagged call obtained its value.
type Outcome uint8

const (
	// Miss: this call executed the fill function (it was the leader).
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: an in-flight leader's execution was shared.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "miss"
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	// Invalidations counts entries dropped by Invalidate — targeted
	// eviction, as opposed to LRU pressure.
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// TagAll marks an entry as depending on everything: Invalidate for any
// tag also drops entries tagged TagAll.
const TagAll = "*"

// errLeaderPanicked is what followers observe when the leader's fill
// panicked instead of returning; like any leader error it makes them
// retry rather than inherit it.
var errLeaderPanicked = errors.New("cache: fill panicked")

type entry[V any] struct {
	key  string
	val  V
	tags []string
}

// flight is one in-progress fill: followers wait on done, then read
// val/err (the close of done publishes them).
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a fixed-capacity LRU with single-flight fills. Stored values
// MUST be treated as immutable — hits share them.
type Cache[V any] struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*flight[V]
	// tagged is the reverse tag index: tag -> set of resident keys. It
	// makes Invalidate O(entries dropped), not O(cache size).
	tagged map[string]map[string]struct{}

	hits, misses, coalesced, evictions, invalidations int64
}

// New returns a cache holding up to capacity entries (minimum 1).
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		flight: make(map[string]*flight[V]),
		tagged: make(map[string]map[string]struct{}),
	}
}

// DoTagged returns the cached value for key, or executes fill (once
// across all concurrent callers of the same key) and caches its result
// under tags (nil: the entry only ages out by LRU). Errors are returned
// to the leader but never cached or shared. A follower abandons the wait
// when ctx is done and returns ctx's error; the leader runs fill to
// completion whatever its ctx does (fill owns its own cancellation).
func (c *Cache[V]) DoTagged(ctx context.Context, key string, tags []string, fill func() (V, error)) (V, Outcome, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*entry[V]).val
			c.hits++
			c.mu.Unlock()
			return v, Hit, nil
		}
		if fl, ok := c.flight[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-fl.done:
				if fl.err == nil {
					return fl.val, Coalesced, nil
				}
				// The leader failed. Its error may be all about the
				// leader (its deadline, its disconnect), so retry with
				// our own context rather than inherit it.
				if ctx.Err() != nil {
					return zero, Coalesced, ctx.Err()
				}
				continue
			case <-ctx.Done():
				return zero, Coalesced, ctx.Err()
			}
		}
		fl := &flight[V]{done: make(chan struct{}), err: errLeaderPanicked}
		c.flight[key] = fl
		c.misses++
		c.mu.Unlock()
		val, err := c.lead(key, tags, fl, fill)
		return val, Miss, err
	}
}

// lead runs fill as the flight's leader. The flight is released and its
// followers woken in a defer, so a fill that panics re-panics here, on
// the leader, while followers see errLeaderPanicked and retry — never a
// key that can no longer complete.
func (c *Cache[V]) lead(key string, tags []string, fl *flight[V], fill func() (V, error)) (V, error) {
	defer func() {
		c.mu.Lock()
		delete(c.flight, key)
		if fl.err == nil {
			c.putLocked(key, fl.val, tags)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fill()
	return fl.val, fl.err
}

// putLocked inserts key, which is never resident here: a key only gets
// a leader while it is absent, and its flight excludes a second leader
// until after the put. Callers hold c.mu.
func (c *Cache[V]) putLocked(key string, val V, tags []string) {
	e := &entry[V]{key: key, val: val, tags: tags}
	c.items[key] = c.ll.PushFront(e)
	c.tagLocked(e)
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// removeLocked drops one resident entry; callers hold c.mu.
func (c *Cache[V]) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*entry[V])
	c.untagLocked(e)
	delete(c.items, e.key)
}

// tagLocked registers e under each of its tags; callers hold c.mu.
func (c *Cache[V]) tagLocked(e *entry[V]) {
	for _, t := range e.tags {
		set, ok := c.tagged[t]
		if !ok {
			set = make(map[string]struct{})
			c.tagged[t] = set
		}
		set[e.key] = struct{}{}
	}
}

// untagLocked removes e from the tag index; callers hold c.mu.
func (c *Cache[V]) untagLocked(e *entry[V]) {
	for _, t := range e.tags {
		set := c.tagged[t]
		delete(set, e.key)
		if len(set) == 0 {
			delete(c.tagged, t)
		}
	}
}

// Invalidate drops every entry stored under any of the given tags —
// plus every entry tagged TagAll — and returns the number of entries
// dropped. Other entries are left alone. In-flight fills are unaffected:
// callers that need a racing fill to land unreachable must version their
// keys (the serving layer's generation-stamped fingerprints do).
func (c *Cache[V]) Invalidate(tags ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	drop := func(tag string) {
		// removeLocked edits the set being ranged; deleting from a map
		// during iteration is well-defined.
		for k := range c.tagged[tag] {
			c.removeLocked(c.items[k])
			dropped++
		}
	}
	for _, t := range tags {
		drop(t)
	}
	drop(TagAll)
	c.invalidations += int64(dropped)
	return dropped
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Capacity:      c.cap,
	}
}
