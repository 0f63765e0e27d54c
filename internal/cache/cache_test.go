package cache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func fillConst[V any](v V) func() (V, error) {
	return func() (V, error) { return v, nil }
}

// waitFor polls cond (cache counters move under the cache's own lock,
// so there is no event to wait on from outside).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestCacheSequential is the table for everything a single caller can
// observe: each step is one DoTagged or one Invalidate, checked against
// the outcome, the value, and (at the end) the counter block. Both
// facades (server.ResultCache, engine.AnalysisCache) rely on it instead
// of carrying their own copies.
func TestCacheSequential(t *testing.T) {
	boom := errors.New("boom")
	type step struct {
		key     string   // DoTagged key; "" means Invalidate(tags...)
		tags    []string // DoTagged tags, or Invalidate's arguments
		fill    string   // value a fill would return; "!" fails with boom
		want    string
		outcome Outcome
		err     error
		dropped int // Invalidate's expected return
	}
	do := func(key, fill, want string, o Outcome, tags ...string) step {
		return step{key: key, tags: tags, fill: fill, want: want, outcome: o}
	}
	inval := func(dropped int, tags ...string) step { return step{tags: tags, dropped: dropped} }

	for _, tc := range []struct {
		name  string
		cap   int
		steps []step
		stats Stats
	}{
		{"miss then hit", 4, []step{
			do("a", "1", "1", Miss),
			do("a", "2", "1", Hit),
		}, Stats{Hits: 1, Misses: 1, Entries: 1, Capacity: 4}},
		{"error is returned, not cached", 4, []step{
			{key: "k", fill: "!", err: boom},
			{key: "k", fill: "!", err: boom},
			do("k", "v", "v", Miss),
		}, Stats{Misses: 3, Entries: 1, Capacity: 4}},
		{"LRU eviction spares the touched entry", 2, []step{
			do("a", "a", "a", Miss),
			do("b", "b", "b", Miss),
			do("a", "-", "a", Hit), // touch a: b becomes the victim
			do("c", "c", "c", Miss),
			do("a", "-", "a", Hit),
			do("c", "-", "c", Hit),
			do("b", "b2", "b2", Miss), // b was evicted; refilling evicts a
		}, Stats{Hits: 3, Misses: 4, Evictions: 2, Entries: 2, Capacity: 2}},
		{"capacity clamps to 1", 0, []step{
			do("a", "a", "a", Miss),
			do("b", "b", "b", Miss),
		}, Stats{Misses: 2, Evictions: 1, Entries: 1, Capacity: 1}},
		{"invalidate drops the tag and TagAll, nothing else", 8, []step{
			do("d1/q1", "x", "x", Miss, "d1"),
			do("d1/q2", "x", "x", Miss, "d1"),
			do("d2/q1", "y", "y", Miss, "d2"),
			do("*/q1", "z", "z", Miss, TagAll),
			do("untagged", "u", "u", Miss),
			inval(3, "d1"),
			do("d2/q1", "-", "y", Hit),
			do("untagged", "-", "u", Hit),
			do("d1/q1", "x2", "x2", Miss, "d1"),
			do("*/q1", "z2", "z2", Miss, TagAll),
			inval(1, "no-such-doc"), // TagAll entries depend on everything
			inval(0),
			inval(2, "d1", "d2"),
		}, Stats{Hits: 2, Misses: 7, Invalidations: 6, Entries: 1, Capacity: 8}},
		{"an entry under two tags drops once", 4, []step{
			do("k", "v", "v", Miss, "d1", "d2"),
			inval(1, "d1", "d2"),
			inval(0, "d2"),
		}, Stats{Misses: 1, Invalidations: 1, Capacity: 4}},
		{"eviction unlinks tags", 1, []step{
			do("a", "a", "a", Miss, "d"),
			do("b", "b", "b", Miss, "d"),
			inval(1, "d"),
		}, Stats{Misses: 2, Evictions: 1, Invalidations: 1, Capacity: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.cap)
			for i, st := range tc.steps {
				if st.key == "" {
					if got := c.Invalidate(st.tags...); got != st.dropped {
						t.Fatalf("step %d: Invalidate(%v) = %d, want %d", i, st.tags, got, st.dropped)
					}
					continue
				}
				ran := false
				v, out, err := c.DoTagged(context.Background(), st.key, st.tags, func() (string, error) {
					ran = true
					if st.fill == "!" {
						return "", boom
					}
					return st.fill, nil
				})
				if v != st.want || out != st.outcome || !errors.Is(err, st.err) {
					t.Fatalf("step %d: DoTagged(%q) = (%q, %v, %v), want (%q, %v, %v)",
						i, st.key, v, out, err, st.want, st.outcome, st.err)
				}
				if ran != (st.outcome == Miss) {
					t.Fatalf("step %d: fill ran = %v on outcome %v", i, ran, out)
				}
			}
			if got := c.Stats(); !reflect.DeepEqual(got, tc.stats) {
				t.Errorf("stats = %+v, want %+v", got, tc.stats)
			}
		})
	}
}

// TestCacheSingleFlight checks the admission contract under
// contention: one fill per key no matter how many concurrent callers,
// followers coalesce onto the leader's result.
func TestCacheSingleFlight(t *testing.T) {
	c := New[any](4)
	ctx := context.Background()

	gate := make(chan struct{})
	var fills int
	var fillMu sync.Mutex
	fill := func() (any, error) {
		fillMu.Lock()
		fills++
		fillMu.Unlock()
		<-gate
		return "value", nil
	}

	const callers = 8
	outcomes := make([]Outcome, callers)
	vals := make([]any, callers)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			v, out, err := c.DoTagged(ctx, "k", nil, fill)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i], outcomes[i] = v, out
		}(i)
	}
	started.Wait()
	close(gate) // release the leader; followers coalesce
	wg.Wait()

	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	miss, coalesced, hit := 0, 0, 0
	for i, out := range outcomes {
		if vals[i] != "value" {
			t.Errorf("caller %d got %v", i, vals[i])
		}
		switch out {
		case Miss:
			miss++
		case Coalesced:
			coalesced++
		case Hit:
			hit++
		}
	}
	if miss != 1 {
		t.Errorf("outcomes: %d misses (%d coalesced, %d hits), want exactly 1 miss",
			miss, coalesced, hit)
	}
	if miss+coalesced+hit != callers {
		t.Errorf("outcomes don't add up: %d+%d+%d != %d", miss, coalesced, hit, callers)
	}
}

// TestCacheFollowerOutlivesFailedLeader: a leader failing with its own
// deadline error must not poison a follower that still has time — the
// follower retries as the new leader.
func TestCacheFollowerOutlivesFailedLeader(t *testing.T) {
	c := New[any](4)

	gate := make(chan struct{})
	leaderFill := func() (any, error) {
		<-gate
		return nil, context.DeadlineExceeded
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := c.DoTagged(context.Background(), "k", nil, leaderFill); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("leader err = %v", err)
		}
	}()
	waitFor(t, "the leader's flight", func() bool { return c.Stats().Misses == 1 })

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		v, out, err := c.DoTagged(context.Background(), "k", nil, fillConst[any]("fresh"))
		if err != nil || v != "fresh" {
			t.Errorf("follower = (%v, %v, %v), want (fresh, _, nil)", v, out, err)
		}
	}()
	waitFor(t, "the follower to coalesce", func() bool { return c.Stats().Coalesced == 1 })

	close(gate)
	wg.Wait()
	<-followerDone

	// A follower whose own context dies while waiting gets that error.
	c2 := New[any](4)
	gate2 := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2.DoTagged(context.Background(), "k", nil, func() (any, error) { <-gate2; return 1, nil })
	}()
	waitFor(t, "the second leader's flight", func() bool { return c2.Stats().Misses == 1 })
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c2.DoTagged(cctx, "k", nil, fillConst[any](2)); !errors.Is(err, context.Canceled) {
		t.Errorf("dead follower err = %v, want context.Canceled", err)
	}
	close(gate2)
	wg.Wait()
}

// TestCachePoisonedFlight: a fill that panics must re-panic on its
// leader and release the flight — a follower parked on it retries with
// a fresh fill instead of waiting forever on a key that can never
// complete, and no goroutine is left blocked.
func TestCachePoisonedFlight(t *testing.T) {
	c := New[string](4)
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.DoTagged(context.Background(), "k", nil, func() (string, error) {
			<-gate
			panic("fill exploded")
		})
	}()
	waitFor(t, "the leader's flight", func() bool { return c.Stats().Misses == 1 })

	type result struct {
		v   string
		out Outcome
		err error
	}
	followerDone := make(chan result, 1)
	go func() {
		v, out, err := c.DoTagged(context.Background(), "k", nil, fillConst("fresh"))
		followerDone <- result{v, out, err}
	}()
	waitFor(t, "the follower to coalesce", func() bool { return c.Stats().Coalesced == 1 })

	close(gate)
	if p := <-leaderPanic; p != "fill exploded" {
		t.Fatalf("leader recovered %v, want the fill's own panic value", p)
	}
	select {
	case r := <-followerDone:
		if r.v != "fresh" || r.out != Miss || r.err != nil {
			t.Fatalf("follower = %+v, want a fresh fill as the new leader", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still blocked on the panicked leader's flight")
	}

	// The key is usable again for everyone else too.
	if v, out, err := c.DoTagged(context.Background(), "k", nil, fillConst("unused")); v != "fresh" || out != Hit || err != nil {
		t.Fatalf("after recovery: (%q, %v, %v), want (fresh, hit, nil)", v, out, err)
	}
	waitFor(t, "goroutines to settle", func() bool { return runtime.NumGoroutine() <= before })
}

func TestOutcomeString(t *testing.T) {
	for out, want := range map[Outcome]string{Miss: "miss", Hit: "hit", Coalesced: "coalesced"} {
		if got := out.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", out, got, want)
		}
	}
	if got := fmt.Sprint(Outcome(99)); strings.TrimSpace(got) == "" {
		t.Error("unknown outcome prints empty")
	}
}
