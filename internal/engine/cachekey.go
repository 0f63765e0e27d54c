// Cache key canonicalization. A personalized search is a pure function
// of (document + index configuration, query, profile, evaluation
// options); the serving layer's result cache (internal/server) keys on
// a canonical string of exactly those inputs, so two requests collide
// iff they are guaranteed to produce identical ranked answers and
// identical response metadata.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
)

// Fingerprint returns a stable hash of everything engine-side that can
// change a response: the document's full content, the text pipeline
// configuration (stemming/stopwords change tokenization and hence
// matching), and the active scorer — index.ContentFingerprint over the
// engine's index. It is computed once per engine and cached; two
// engines over byte-identical documents with the same configuration
// share a fingerprint, so a result cache survives an engine rebuild or
// a process restart. A fingerprint installed with SetFingerprint (the
// mutable registry stamps generation-qualified fingerprints) takes
// precedence over the computed one.
func (e *Engine) Fingerprint() string {
	e.fpOnce.Do(func() {
		if e.fp == "" {
			e.fp = index.ContentFingerprint(e.ix)
		}
	})
	return e.fp
}

// SetFingerprint overrides the engine's fingerprint — the serving layer
// installs the corpus entry's generation-stamped fingerprint so cache
// keys derived through this engine carry the document's generation, not
// just its content hash. Call before the engine is shared; the override
// wins over (and suppresses) the lazy content hash.
func (e *Engine) SetFingerprint(fp string) {
	e.fp = fp
	e.fpOnce.Do(func() {})
}

// CacheKey returns the canonical cache key for the request against a
// document with the given fingerprint. Every request field that can
// influence the response is folded in: the query's canonical string
// form, the profile's canonical serialization, the resolved K, the
// strategy and the access path.
//
// resolvedPar is the *resolved* parallelism (Engine.ResolvedParallelism),
// not the request's raw Parallelism knob. Parallelism never changes the
// ranked answers, but it changes the response's Workers/Stats metadata,
// so it must be part of the key — and keying on the raw request value
// would be wrong in both directions: requests that resolve identically
// (0 and 1 on a small document) would miss needlessly, and requests
// that resolve differently (0 on a small and on a large document's
// worth of GOMAXPROCS) would share metadata only one of them ran with.
func (req *Request) CacheKey(fingerprint string, resolvedPar int) string {
	k, _ := req.Validate() // a request Validate refuses has no response to key
	var sb strings.Builder
	sb.Grow(256)
	fmt.Fprintf(&sb, "doc=%s\x1fq=%s\x1fk=%d\x1fstrat=%s\x1faccess=%s\x1fpar=%d",
		fingerprint, req.Query.String(), k, req.Strategy, req.Access, resolvedPar)
	sb.WriteString("\x1fprof=")
	sb.WriteString(CanonicalProfile(req.Profile))
	if req.Thesaurus != nil && req.Thesaurus.Len() > 0 {
		w := req.ThesaurusWeight
		if w == 0 {
			w = 0.5
		}
		fmt.Fprintf(&sb, "\x1fth@%g=%s", w, canonicalThesaurus(req.Thesaurus))
	}
	return sb.String()
}

// CanonicalProfile serializes a profile deterministically: rules in
// declaration order with their priorities and weights, named partial
// orders sorted by name with their full edge sets, and the rank order.
// Two profiles with the same canonical form rank every answer list
// identically. A nil profile canonicalizes to "-".
func CanonicalProfile(p *profile.Profile) string {
	if p == nil {
		return "-"
	}
	var sb strings.Builder
	for _, sr := range p.SRs {
		fmt.Fprintf(&sb, "sr{%s;prio=%d;w=%g}", sr, sr.Priority, sr.Weight)
	}
	for _, v := range p.VORs {
		fmt.Fprintf(&sb, "vor{%s;prio=%d}", v, v.Priority)
	}
	for _, kor := range p.KORs {
		fmt.Fprintf(&sb, "kor{%s;prio=%d;w=%g}", kor, kor.Priority, kor.Weight)
	}
	names := make([]string, 0, len(p.Orders))
	for name := range p.Orders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		po := p.Orders[name]
		vals := po.Values()
		sort.Strings(vals)
		fmt.Fprintf(&sb, "order{%s:", name)
		for _, a := range vals {
			for _, b := range vals {
				if a != b && po.Prefers(a, b) {
					fmt.Fprintf(&sb, "%s<%s;", a, b)
				}
			}
		}
		sb.WriteString("}")
	}
	fmt.Fprintf(&sb, "rank=%s", p.Rank)
	return sb.String()
}

// canonicalThesaurus serializes a thesaurus as sorted phrase → synonym
// lists (Phrases is already sorted; synonym order matters to expansion
// order, so it is preserved).
func canonicalThesaurus(t *text.Thesaurus) string {
	var sb strings.Builder
	for _, p := range t.Phrases() {
		fmt.Fprintf(&sb, "%s=%s;", p, strings.Join(t.Synonyms(p), ","))
	}
	return sb.String()
}
