// Memoized profile/query analysis. The Section 5 analyses and the vet
// suite are pure functions of the profile (and query), so a warm server
// should never pay for re-analysis on the request path: verdicts are
// cached under the profile fingerprint (plus the canonical query string
// for query-scoped work), single-flight like the result cache, and the
// stored artifacts (reports, flocks, encoded query, applied-rule lists,
// diagnostics) are shared copy-on-write — every consumer treats them as
// immutable. Each fill runs each Section 5 analysis once and derives the
// gate, the vet diagnostics and the explain report from that one result.
//
// Unlike the serving layer's ResultCache, analysis *errors* are cached
// inside the verdict values: an ambiguous profile is deterministically
// ambiguous, so recomputing the rejection per request would defeat the
// cache. The only error do() itself can return is a follower's context
// expiring while another caller's fill is in flight.
//
// Personalize is the only consumer of the verdicts' gate half; every
// search — one document or a fan-out, memoized or not — goes through it.
// AnalyzeProfile reads the report half.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/tpq"
)

// ProfileFingerprint hashes a profile's canonical serialization; equal
// fingerprints mean the profiles analyze (and rank) identically. The
// fingerprint is document-independent, so one AnalysisCache serves every
// engine in a registry.
func ProfileFingerprint(p *profile.Profile) string {
	sum := sha256.Sum256([]byte(CanonicalProfile(p)))
	return hex.EncodeToString(sum[:8])
}

// Rejection is the Section 5 gate refusing a profile: its value-based
// ordering rules are ambiguous under priorities (5.2) or its scoping
// rules form a conflict cycle on the query (5.1). Check is the ID of the
// error-severity vet diagnostic the same analysis produces, so "error
// diagnostic ⇔ Search rejects" travels on the error itself.
type Rejection struct {
	Check string // analysis.DiagVORAmbiguous or analysis.DiagSRConflictCycle
	msg   string
}

func (r *Rejection) Error() string { return r.msg }

// Personalize is the document-independent step between (query, profile)
// and a runnable plan: the Section 5 gate rejects the profile
// (*Rejection), or q comes back with the scoping rules flock-encoded
// into it (Section 6.2) plus the names of the rules applied. A nil
// profile passes q through; a nil ac computes the same verdicts
// un-memoized. The only other error is ctx expiring during another
// caller's fill. The encoded query is shared: treat it as immutable.
func Personalize(ctx context.Context, ac *AnalysisCache, prof *profile.Profile, q *tpq.Query) (encoded *tpq.Query, applied []string, err error) {
	if prof == nil {
		return q, nil, nil
	}
	pv, err := ac.ProfileVerdict(ctx, prof)
	if err != nil {
		return nil, nil, err
	}
	if pv.AmbiguityErr != nil {
		return nil, nil, pv.AmbiguityErr
	}
	qv, err := ac.QueryVerdict(ctx, prof, q)
	if err != nil {
		return nil, nil, err
	}
	if qv.ConflictErr != nil {
		return nil, nil, qv.ConflictErr
	}
	return qv.Encoded, qv.Applied, nil
}

// ProfileVerdict is the cached outcome of the profile-scoped analyses:
// the Section 5.2 ambiguity report, the gate it implies and the vet
// diagnostics read from it.
type ProfileVerdict struct {
	Fingerprint string
	// Ambiguity is DetectAmbiguityPrioritized's report, computed once per
	// fill.
	Ambiguity analysis.AmbiguityReport
	// Diags is VetProfile's output (sorted, canonical witnesses).
	Diags []analysis.Diagnostic
	// AmbiguityErr is the Search-blocking *Rejection, nil when the VOR
	// set is unambiguous under priorities.
	AmbiguityErr error
}

// QueryVerdict is the cached outcome of analyzing one (profile, query)
// pair: the Section 5.1 conflict report, the literal flock, the
// single-plan flock encoding Search executes, and the query-scoped vet
// diagnostics — all read from one AnalyzeSRs run.
type QueryVerdict struct {
	// Conflicts is AnalyzeSRs's report (nil only when a rule condition
	// does not compile).
	Conflicts *analysis.ConflictReport
	// Flock is the literal query flock (Section 5.1), q first, and
	// FlockApplied the rules that rewrote it; both nil when ConflictErr
	// is set.
	Flock        []*tpq.Query
	FlockApplied []string
	// Encoded is the flock encoded into a single query (Section 6.2);
	// nil when ConflictErr is set. Consumers must not mutate it.
	Encoded *tpq.Query
	// Applied lists the scoping rules applied during encoding.
	Applied []string
	// Diags is VetQuery's output.
	Diags []analysis.Diagnostic
	// ConflictErr is the Section 5.1 *Rejection (conflict cycle), nil
	// when an application order exists.
	ConflictErr error
}

// AnalysisCacheStats is a snapshot of cache behavior plus the cumulative
// per-diagnostic-class counts observed by fills — the source for the
// /metrics counters.
type AnalysisCacheStats struct {
	Hits, Misses, Coalesced uint64
	Evictions               uint64
	Entries, Capacity       int
	// Diagnostics maps check ID -> number of diagnostics produced by
	// analysis fills (each unique profile/query analyzed counts once,
	// not once per request — cache hits don't re-count).
	Diagnostics map[string]uint64
}

// AnalysisCache memoizes ProfileVerdict and QueryVerdict values in one
// shared single-flight LRU (internal/cache), plus the per-class
// diagnostic counters its fills feed.
type AnalysisCache struct {
	lru *cache.Cache[any]

	mu         sync.Mutex
	diagCounts map[string]uint64
}

// NewAnalysisCache returns a cache holding up to capacity verdicts
// (minimum 2: a profile verdict and one query verdict).
func NewAnalysisCache(capacity int) *AnalysisCache {
	if capacity < 2 {
		capacity = 2
	}
	return &AnalysisCache{lru: cache.New[any](capacity), diagCounts: make(map[string]uint64)}
}

// ProfileVerdict returns the memoized profile-scoped analysis of p. The
// error is non-nil only when ctx expires while another goroutine's fill
// is still running; analysis rejections live in the verdict itself.
func (c *AnalysisCache) ProfileVerdict(ctx context.Context, p *profile.Profile) (*ProfileVerdict, error) {
	fp := ProfileFingerprint(p)
	v, err := c.do(ctx, "p\x1f"+fp, func() (any, []analysis.Diagnostic) {
		pv := &ProfileVerdict{Fingerprint: fp, Ambiguity: analysis.DetectAmbiguityPrioritized(p.VORs)}
		pv.Diags = analysis.VetProfile(p, pv.Ambiguity)
		if amb := pv.Ambiguity; amb.Ambiguous {
			pv.AmbiguityErr = &Rejection{Check: analysis.DiagVORAmbiguous, msg: fmt.Sprintf(
				"engine: ambiguous value-based ordering rules (cycle %v): %s",
				amb.Cycle, amb.Suggestion)}
		}
		return pv, pv.Diags
	})
	if err != nil {
		return nil, err
	}
	return v.(*ProfileVerdict), nil
}

// QueryVerdict returns the memoized (profile, query) analysis: the
// conflict report, the literal flock, the single-plan flock encoding
// and the query-scoped diagnostics.
func (c *AnalysisCache) QueryVerdict(ctx context.Context, p *profile.Profile, q *tpq.Query) (*QueryVerdict, error) {
	key := "q\x1f" + ProfileFingerprint(p) + "\x1f" + q.String()
	v, err := c.do(ctx, key, func() (any, []analysis.Diagnostic) {
		rep, err := analysis.AnalyzeSRs(p.SRs, q)
		qv := &QueryVerdict{Conflicts: rep}
		if err != nil {
			qv.ConflictErr = &Rejection{Check: analysis.DiagSRConflictCycle, msg: err.Error()}
		} else {
			qv.Flock, qv.FlockApplied = rep.Walk(p.SRs, q, false)
			steps, applied := rep.Walk(p.SRs, q, true)
			qv.Encoded, qv.Applied = steps[len(steps)-1], applied
		}
		qv.Diags = analysis.VetQuery(p, rep, qv.Flock)
		return qv, qv.Diags
	})
	if err != nil {
		return nil, err
	}
	return v.(*QueryVerdict), nil
}

// do is the single-flight LRU lookup; fill returns the verdict and the
// diagnostics to count, once per fill. The fill runs inline on the
// leader and takes no context (the analyses are pure and cost tens of
// microseconds), so the caller that triggered a fill giving up cannot
// abort it: every waiter with a live context still receives the value.
// A nil cache is the un-memoized case: the same fill, counted nowhere.
func (c *AnalysisCache) do(ctx context.Context, key string, fill func() (any, []analysis.Diagnostic)) (any, error) {
	if c == nil {
		v, _ := fill()
		return v, nil
	}
	v, _, err := c.lru.DoTagged(ctx, key, nil, func() (any, error) {
		v, ds := fill()
		c.RecordDiagnostics(ds)
		return v, nil
	})
	return v, err
}

// RecordDiagnostics folds diagnostics into the per-class counters: each
// fill's, and — from the serving layer — findings that never reach a
// fill (e.g. a duplicate-identifier rejection raised during profile
// parsing, before analysis can run).
func (c *AnalysisCache) RecordDiagnostics(ds []analysis.Diagnostic) {
	c.mu.Lock()
	for _, d := range ds {
		c.diagCounts[d.ID]++
	}
	c.mu.Unlock()
}

// Stats snapshots the counters. The Diagnostics map is a copy.
func (c *AnalysisCache) Stats() AnalysisCacheStats {
	st := c.lru.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	diags := make(map[string]uint64, len(c.diagCounts))
	for k, v := range c.diagCounts {
		diags[k] = v
	}
	return AnalysisCacheStats{
		Hits:        uint64(st.Hits),
		Misses:      uint64(st.Misses),
		Coalesced:   uint64(st.Coalesced),
		Evictions:   uint64(st.Evictions),
		Entries:     st.Entries,
		Capacity:    st.Capacity,
		Diagnostics: diags,
	}
}
