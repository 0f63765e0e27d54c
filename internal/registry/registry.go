// Package registry is the multi-tenant named-profile store behind
// PUT/GET/DELETE /profiles/{name}: long-lived personalization state
// registered once and referenced by name from every search.
//
// Two properties drive the design:
//
//   - Content-fingerprint dedup. Profiles are stored by the sha256
//     fingerprint of their canonical serialization
//     (engine.ProfileFingerprint), not by name: N names registered over
//     one body share one parsed profile, one vet verdict, and — because
//     the result-cache key folds the canonical profile, never the name —
//     one result-cache key space. Millions of users collapse to
//     thousands of distinct profiles.
//
//   - Vet-on-write. A profile that fails the analysis suite's
//     error-severity checks is rejected at registration with its
//     diagnostics, extending the "error ⇔ Search rejects" contract to
//     "error ⇔ registration rejects": a name, once registered, never
//     fails profile-scoped analysis at query time. The vet runs once
//     per distinct body — re-registering an already-stored body skips
//     it entirely.
//
// Name binding is the only mutable state; stored bodies are immutable
// and refcounted, so a Stored handle resolved for one request stays
// valid even if the name is deleted or rebound mid-flight.
package registry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/profile"
)

// Vetter runs the profile-scoped static analyses and returns their
// diagnostics. The serving layer injects one backed by the shared
// engine.AnalysisCache so registration warms the same verdict searches
// consult. The error is reserved for ctx expiring mid-analysis —
// rejections travel in the diagnostics.
type Vetter func(ctx context.Context, p *profile.Profile) ([]analysis.Diagnostic, error)

// Stored is one deduplicated, vetted profile body. It is immutable
// after creation (the refcount aside) and shared by every name bound
// to it.
type Stored struct {
	fingerprint string
	source      string
	prof        *profile.Profile
	refs        atomic.Int64
}

// Fingerprint returns the body's content fingerprint
// (engine.ProfileFingerprint of the parsed profile).
func (st *Stored) Fingerprint() string { return st.fingerprint }

// Source returns the profile DSL source as registered.
func (st *Stored) Source() string { return st.source }

// Profile returns the parsed profile. Callers must treat it as
// immutable — it is shared across names and across in-flight searches.
func (st *Stored) Profile() *profile.Profile { return st.prof }

// Shared returns how many names are currently bound to this body.
func (st *Stored) Shared() int { return int(st.refs.Load()) }

// Rejection is the vet-on-write (or parse) refusal: the registration
// changed nothing. Diagnostics carries the analysis findings when the
// body parsed but failed error-severity checks; Err carries plain
// parse/validation failures.
type Rejection struct {
	Diagnostics []analysis.Diagnostic
	Err         error
}

func (r *Rejection) Error() string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return fmt.Sprintf("profile rejected: %d error-severity diagnostic(s)",
		analysis.ErrorCount(r.Diagnostics))
}

func (r *Rejection) Unwrap() error { return r.Err }

// ValidateName rejects profile names the rest of the API cannot
// address (mirroring document-name rules): "" and "*" are reserved,
// and '/' would break the {name} path segment.
func ValidateName(name string) error {
	if name == "" || name == "*" {
		return fmt.Errorf("invalid profile name %q", name)
	}
	if strings.ContainsAny(name, "/\x00") {
		return fmt.Errorf("invalid profile name %q: must not contain '/'", name)
	}
	return nil
}

// Registry is the concurrency-safe name → stored-profile map.
type Registry struct {
	vet Vetter

	mu    sync.RWMutex
	names map[string]*Stored
	byFP  map[string]*Stored
}

// New returns an empty registry. vet runs once per distinct profile
// body at registration time; nil means analysis.Vet(p, nil).
func New(vet Vetter) *Registry {
	if vet == nil {
		vet = func(_ context.Context, p *profile.Profile) ([]analysis.Diagnostic, error) {
			return analysis.Vet(p, nil), nil
		}
	}
	return &Registry{
		vet:   vet,
		names: make(map[string]*Stored),
		byFP:  make(map[string]*Stored),
	}
}

// Put parses, vets and registers source under name, returning the
// stored (possibly pre-existing, shared) body and whether the name is
// new. Failures return a *Rejection and change nothing. The vet runs
// only for bodies the registry has never stored: re-registering a
// known body — under any name — is a pure map update.
func (r *Registry) Put(ctx context.Context, name, source string) (*Stored, bool, error) {
	if err := ValidateName(name); err != nil {
		return nil, false, &Rejection{Err: err}
	}
	prof, err := profile.ParseProfile(source)
	if err != nil {
		// A duplicate rule identifier is a finding, not a malformed
		// request (as in POST /lint); anything else is a plain parse
		// failure.
		if ds := analysis.ParseDiagnostics(err); ds != nil {
			return nil, false, &Rejection{Diagnostics: ds}
		}
		return nil, false, &Rejection{Err: err}
	}
	fp := engine.ProfileFingerprint(prof)

	// Dedup fast path: the body is already stored and vetted — bind the
	// name to it without re-running analysis.
	r.mu.Lock()
	if st, ok := r.byFP[fp]; ok {
		created := r.bindLocked(name, st)
		r.mu.Unlock()
		return st, created, nil
	}
	r.mu.Unlock()

	// New body: vet outside the lock (analysis can be expensive and the
	// injected vetter may block on a single-flight fill).
	ds, err := r.vet(ctx, prof)
	if err != nil {
		return nil, false, err
	}
	if analysis.ErrorCount(ds) > 0 {
		return nil, false, &Rejection{Diagnostics: ds}
	}

	st := &Stored{fingerprint: fp, source: source, prof: prof}
	r.mu.Lock()
	if racer, ok := r.byFP[fp]; ok {
		st = racer // a concurrent Put stored the same body first: share it
	} else {
		r.byFP[fp] = st
	}
	created := r.bindLocked(name, st)
	r.mu.Unlock()
	return st, created, nil
}

// bindLocked points name at st, releasing any previous binding.
// Caller holds mu. Returns true when the name is new.
func (r *Registry) bindLocked(name string, st *Stored) (created bool) {
	old, existed := r.names[name]
	if existed {
		if old == st {
			return false // re-registration of the identical body: no-op
		}
		r.unbindLocked(old)
	}
	r.names[name] = st
	st.refs.Add(1)
	return !existed
}

// unbindLocked drops one reference; the body is forgotten when the
// last name releases it, retiring its fingerprint. Caller holds mu.
func (r *Registry) unbindLocked(st *Stored) {
	if st.refs.Add(-1) == 0 {
		delete(r.byFP, st.fingerprint)
	}
}

// Get resolves a name to its stored body.
func (r *Registry) Get(name string) (*Stored, bool) {
	r.mu.RLock()
	st, ok := r.names[name]
	r.mu.RUnlock()
	return st, ok
}

// Delete unbinds a name, returning the body it pointed at; ok is
// false when the name was not registered (nothing changed).
func (r *Registry) Delete(name string) (*Stored, bool) {
	r.mu.Lock()
	st, ok := r.names[name]
	if ok {
		delete(r.names, name)
		r.unbindLocked(st)
	}
	r.mu.Unlock()
	return st, ok
}

// Entry is one (name, fingerprint) listing row.
type Entry struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

// List returns every binding sorted by name.
func (r *Registry) List() []Entry {
	r.mu.RLock()
	out := make([]Entry, 0, len(r.names))
	for n, st := range r.names {
		out = append(out, Entry{Name: n, Fingerprint: st.fingerprint})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered names.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.names)
}

// Distinct returns the number of distinct stored bodies — Len minus
// the dedup savings.
func (r *Registry) Distinct() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byFP)
}

// Stats is the registry's gauge block.
type Stats struct {
	// Names is the number of registered names; Distinct the number of
	// deduplicated bodies behind them.
	Names    int `json:"names"`
	Distinct int `json:"distinct"`
}

// Stats snapshots both gauges under one lock acquisition.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Stats{Names: len(r.names), Distinct: len(r.byFP)}
}
