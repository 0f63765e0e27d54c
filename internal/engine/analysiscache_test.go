package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/profile"
	"repro/internal/tpq"
)

const ambiguousVORs = `
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`

// cyclicSRs conflict on any query carrying both phrases: each removes
// the predicate the other's condition needs.
const cyclicSRs = `
sr p1: if pc(car, description) & ftcontains(description, "low mileage") then remove ftcontains(description, "good condition")
sr p3: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")
`

func TestAnalysisCacheProfileVerdict(t *testing.T) {
	c := NewAnalysisCache(8)
	clean := profile.MustParseProfile(fig2Rules)
	ctx := context.Background()

	pv1, err := c.ProfileVerdict(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	if pv1.AmbiguityErr != nil {
		t.Fatalf("clean profile verdict carries %v", pv1.AmbiguityErr)
	}
	pv2, err := c.ProfileVerdict(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	if pv1 != pv2 {
		t.Error("second lookup should return the cached verdict pointer")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss / 1 hit", st)
	}

	// An analysis rejection is cached inside the verdict, not surfaced as
	// a do() error.
	amb := profile.MustParseProfile(ambiguousVORs)
	pv3, err := c.ProfileVerdict(ctx, amb)
	if err != nil {
		t.Fatal(err)
	}
	if pv3.AmbiguityErr == nil || !strings.Contains(pv3.AmbiguityErr.Error(), "ambiguous") {
		t.Fatalf("ambiguity verdict = %v", pv3.AmbiguityErr)
	}
	pv4, _ := c.ProfileVerdict(ctx, amb)
	if pv4.AmbiguityErr != pv3.AmbiguityErr {
		t.Error("cached rejection should be the same error value")
	}
	if analysis.ErrorCount(pv3.Diags) == 0 {
		t.Error("ambiguous profile should carry an error diagnostic")
	}

	// Diagnostics are counted once per fill, not once per request.
	d0 := c.Stats().Diagnostics[analysis.DiagVORAmbiguous]
	c.ProfileVerdict(ctx, amb)
	c.ProfileVerdict(ctx, amb)
	if d1 := c.Stats().Diagnostics[analysis.DiagVORAmbiguous]; d1 != d0 {
		t.Errorf("cache hits re-counted diagnostics: %d -> %d", d0, d1)
	}
}

func TestAnalysisCacheQueryVerdict(t *testing.T) {
	c := NewAnalysisCache(8)
	ctx := context.Background()
	q := tpq.MustParse(paperQ)

	clean := profile.MustParseProfile(fig2Rules)
	qv, err := c.QueryVerdict(ctx, clean, q)
	if err != nil {
		t.Fatal(err)
	}
	if qv.ConflictErr != nil || qv.Encoded == nil {
		t.Fatalf("clean verdict = %+v", qv)
	}
	qv2, _ := c.QueryVerdict(ctx, clean, q)
	if qv2.Encoded != qv.Encoded {
		t.Error("encoded query should be shared copy-on-write, not re-encoded")
	}

	cyclic := profile.MustParseProfile(cyclicSRs)
	qv3, err := c.QueryVerdict(ctx, cyclic, q)
	if err != nil {
		t.Fatal(err)
	}
	if qv3.ConflictErr == nil || qv3.Encoded != nil {
		t.Fatalf("cyclic verdict = %+v", qv3)
	}
}

func TestAnalysisCacheEviction(t *testing.T) {
	c := NewAnalysisCache(2)
	ctx := context.Background()
	profs := []*profile.Profile{
		profile.MustParseProfile(fig2Rules),
		profile.MustParseProfile(ambiguousVORs),
		profile.MustParseProfile(cyclicSRs),
	}
	for _, p := range profs {
		if _, err := c.ProfileVerdict(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	// The oldest profile was evicted: looking it up again is a miss.
	c.ProfileVerdict(ctx, profs[0])
	if st = c.Stats(); st.Misses != 4 {
		t.Errorf("evicted entry should refill: %+v", st)
	}
	// The newest is still resident.
	c.ProfileVerdict(ctx, profs[2])
	if st2 := c.Stats(); st2.Hits != st.Hits+1 {
		t.Errorf("resident entry should hit: %+v", st2)
	}
}

// TestAnalysisCacheFollowerOutlivesLeader: the caller that triggers a
// fill giving up (its context cancelled mid-fill) must not abort the
// fill — a waiter with a live context still receives the verdict, and it
// is cached.
func TestAnalysisCacheFollowerOutlivesLeader(t *testing.T) {
	c := NewAnalysisCache(4)
	started := make(chan struct{})
	release := make(chan struct{})

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		// The fill takes no context, so the leader finishes it whatever
		// its own context does.
		if v, err := c.do(leaderCtx, "k", func() (any, []analysis.Diagnostic) {
			close(started)
			<-release
			return "value", nil
		}); err != nil || v != "value" {
			t.Errorf("leader = (%v, %v), want (value, nil)", v, err)
		}
	}()
	<-started
	cancel() // the caller that triggered the fill gives up mid-fill

	// Follower joins the (still running) fill with a live context.
	followerDone := make(chan any, 1)
	go func() {
		v, err := c.do(context.Background(), "k", func() (any, []analysis.Diagnostic) {
			t.Error("follower must coalesce, not refill")
			return nil, nil
		})
		if err != nil {
			t.Error(err)
		}
		followerDone <- v
	}()

	// Give the follower time to register as coalesced, then finish the
	// fill.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if v := <-followerDone; v != "value" {
		t.Fatalf("follower got %v", v)
	}
	<-leaderDone
	if _, err := c.do(context.Background(), "k", func() (any, []analysis.Diagnostic) {
		t.Error("value must be cached after the fill")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchUsesAnalysisCache: a cached engine returns the same results
// and the same rejections as the inline path, and repeat searches hit.
func TestSearchUsesAnalysisCache(t *testing.T) {
	cached := newEngine(t)
	ac := NewAnalysisCache(16)
	cached.UseAnalysisCache(ac)
	inline := newEngine(t)

	q := func() *tpq.Query { return tpq.MustParse(paperQ) }
	prof := profile.MustParseProfile(fig2Rules)

	r1, err := cached.Search(Request{Query: q(), Profile: prof, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inline.Search(Request{Query: q(), Profile: prof, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Results) != len(r2.Results) {
		t.Fatalf("cached %d results vs inline %d", len(r1.Results), len(r2.Results))
	}
	for i := range r1.Results {
		if r1.Results[i].Path != r2.Results[i].Path {
			t.Fatalf("result %d: %s vs %s", i, r1.Results[i].Path, r2.Results[i].Path)
		}
	}

	// Second search on the warm cache: no new analysis fills.
	st0 := ac.Stats()
	if _, err := cached.Search(Request{Query: q(), Profile: prof, K: 5}); err != nil {
		t.Fatal(err)
	}
	st1 := ac.Stats()
	if st1.Misses != st0.Misses {
		t.Errorf("warm search re-analyzed: %+v -> %+v", st0, st1)
	}
	if st1.Hits <= st0.Hits {
		t.Errorf("warm search should hit: %+v -> %+v", st0, st1)
	}

	// Rejection parity: identical error strings on both paths.
	for _, src := range []string{ambiguousVORs, cyclicSRs} {
		p := profile.MustParseProfile(src)
		_, errC := cached.Search(Request{Query: q(), Profile: p, K: 5})
		_, errI := inline.Search(Request{Query: q(), Profile: p, K: 5})
		if errC == nil || errI == nil {
			t.Fatalf("both paths must reject %q: cached=%v inline=%v", src[:20], errC, errI)
		}
		if errC.Error() != errI.Error() {
			t.Errorf("error text diverged:\ncached: %v\ninline: %v", errC, errI)
		}
	}
}

// TestPersonalizeMemoizedEqualsDirect: the gate is one function whose
// cache is an input — a nil cache and a fresh one agree on the encoded
// query, the applied rules and the rejection (type, check ID and text),
// on the first call and on the memoized second.
func TestPersonalizeMemoizedEqualsDirect(t *testing.T) {
	ctx := context.Background()
	profiles := map[string]*profile.Profile{
		"fig2":      profile.MustParseProfile(fig2Rules),
		"ambiguous": profile.MustParseProfile(ambiguousVORs),
		"cyclic":    profile.MustParseProfile(cyclicSRs),
		"none":      nil,
	}
	for name, prof := range profiles {
		for _, qs := range []string{paperQ, `//car[./description[. ftcontains "good condition"]]`} {
			// The check the direct call must reject with ("" = accept):
			// cyclicSRs conflict only on a query carrying both phrases.
			wantCheck := ""
			switch {
			case name == "ambiguous":
				wantCheck = analysis.DiagVORAmbiguous
			case name == "cyclic" && qs == paperQ:
				wantCheck = analysis.DiagSRConflictCycle
			}
			q := tpq.MustParse(qs)
			ac := NewAnalysisCache(8)
			dEnc, dApplied, dErr := Personalize(ctx, nil, prof, q)
			var dRej *Rejection
			if dErr != nil && !errors.As(dErr, &dRej) {
				t.Fatalf("%s / %s: direct rejection is a %T, want *Rejection", name, qs, dErr)
			}
			if (dErr != nil) != (wantCheck != "") || (dRej != nil && dRej.Check != wantCheck) {
				t.Fatalf("%s / %s: err = %v, want check %q", name, qs, dErr, wantCheck)
			}
			for round := 0; round < 2; round++ {
				mEnc, mApplied, mErr := Personalize(ctx, ac, prof, q)
				if (dErr == nil) != (mErr == nil) {
					t.Fatalf("%s / %s: direct err %v, memoized err %v", name, qs, dErr, mErr)
				}
				if dErr != nil {
					var mRej *Rejection
					if !errors.As(mErr, &mRej) {
						t.Fatalf("%s / %s: memoized rejection is a %T, want *Rejection", name, qs, mErr)
					}
					if dRej.Check != mRej.Check || dRej.Error() != mRej.Error() {
						t.Errorf("%s / %s: direct rejection (%s) %q, memoized (%s) %q",
							name, qs, dRej.Check, dRej, mRej.Check, mRej)
					}
					continue
				}
				if dEnc.String() != mEnc.String() || !reflect.DeepEqual(dApplied, mApplied) {
					t.Errorf("%s / %s: direct (%s, %v), memoized (%s, %v)",
						name, qs, dEnc, dApplied, mEnc, mApplied)
				}
			}
		}
	}
}

// TestAnalysisCacheStress drives concurrent searches and direct cache
// lookups over shared and distinct profiles under -race, then gates on
// goroutine leaks (no caller may be left parked on a flight).
func TestAnalysisCacheStress(t *testing.T) {
	e := newEngine(t)
	ac := NewAnalysisCache(4) // small: force evictions under load
	e.UseAnalysisCache(ac)

	profSrcs := []string{fig2Rules, ambiguousVORs, cyclicSRs,
		"sr p2 priority 2: if pc(car, description) & ftcontains(description, \"good condition\") then add ftcontains(description, \"american\")\nrank K,V,S\n"}
	queries := []string{paperQ, `//car[./description[. ftcontains "good condition"]]`}

	before := runtime.NumGoroutine()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := profSrcs[(w+i)%len(profSrcs)]
				p, err := profile.ParseProfile(src)
				if err != nil {
					t.Error(err)
					return
				}
				q := tpq.MustParse(queries[i%len(queries)])
				ctx := context.Background()
				timed := i%7 == 3
				if timed {
					// Some callers give up almost immediately; a fill they
					// lead must still complete for everyone else. (The plan layer reports deadline expiry by
					// wall clock, possibly before ctx.Err() flips, so
					// ctx errors are judged by this flag, not ctx.Err.)
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					defer cancel()
				}
				switch i % 3 {
				case 0:
					_, err = e.SearchContext(ctx, Request{Query: q, Profile: p, K: 3})
					if err != nil && !timed &&
						!strings.Contains(err.Error(), "ambiguous") &&
						!strings.Contains(err.Error(), "conflict") {
						t.Errorf("unexpected search error: %v", err)
					}
				case 1:
					if _, err := ac.ProfileVerdict(ctx, p); err != nil && !timed {
						t.Errorf("profile verdict: %v", err)
					}
				case 2:
					if _, err := ac.QueryVerdict(ctx, p, q); err != nil && !timed {
						t.Errorf("query verdict: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := ac.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stress should exercise both hits and misses: %+v", st)
	}
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
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
