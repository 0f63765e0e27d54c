// Result caching for the serving layer.
//
// Personalization makes caching unusually valuable: every profile
// rewrites every query into a flock, so the same (document, query,
// profile, options) tuple re-executes the same multi-operator plan on
// every repeat — and personalized home-page-style queries repeat a lot.
// The cache is keyed by engine.Request.CacheKey (document fingerprint +
// canonical query + canonical profile + resolved options), so a hit is
// guaranteed byte-identical to a cold execution. Single-document entries
// are tagged with the document's name and fan-out entries with TagAll,
// so a mutation drops exactly the entries that depended on it.
//
// The mechanism — LRU, single-flight, tags — is internal/cache; these
// are the serving layer's names for it.
package server

import "repro/internal/cache"

// ResultCache is the serving layer's instance of the shared
// single-flight LRU. It stores marshaled response payloads.
type ResultCache = cache.Cache[any]

// Outcome says how a ResultCache lookup obtained its value; its
// upper-cased String is the X-Cache header.
type Outcome = cache.Outcome

// Lookup outcomes.
const (
	Miss      = cache.Miss
	Hit       = cache.Hit
	Coalesced = cache.Coalesced
)

// CacheStats is the /statsz cache counter block.
type CacheStats = cache.Stats

// TagAll tags a fan-out entry: it depends on every document, so any
// mutation invalidates it.
const TagAll = cache.TagAll

// NewResultCache returns a result cache holding up to capacity entries
// (minimum 1).
func NewResultCache(capacity int) *ResultCache { return cache.New[any](capacity) }
