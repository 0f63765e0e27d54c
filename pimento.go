// Package pimento is a Go implementation of PIMENTO — personalized XML
// search as described in "Personalizing XML Search in PIMENTO"
// (Amer-Yahia, Fundulaki, Lakshmanan; ICDE 2007).
//
// PIMENTO evaluates extended tree pattern queries (structural, value and
// full-text predicates) over XML documents and personalizes them with
// user profiles made of scoping rules (which broaden or narrow the query
// by rewriting) and ordering rules (which override the ranking). Query
// evaluation uses OR-aware top-k pruning so personalization adds
// negligible overhead.
//
// Quick start:
//
//	eng, err := pimento.OpenString(carSaleXML)
//	q, err := pimento.ParseQuery(`//car[./description[. ftcontains "good condition"] and price < 2000]`)
//	prof, err := pimento.ParseProfile(`
//	    sr p2 priority 1: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
//	    kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
//	    rank K,V,S`)
//	resp, err := eng.Search(q, prof, pimento.WithK(5))
//	for _, r := range resp.Results { fmt.Println(r.Path, r.S, r.K) }
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's Table 1 and Figures 6–7.
package pimento

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// Query is an extended tree pattern query (Section 3 of the paper).
type Query = tpq.Query

// Profile is a user profile: scoping rules, value-based and
// keyword-based ordering rules, and named preference orders.
type Profile = profile.Profile

// Result is one ranked answer.
type Result = engine.Result

// Response is a search outcome with personalization metadata.
type Response = engine.Response

// ProfileAnalysis reports the static analyses of Section 5 for a profile
// against a query.
type ProfileAnalysis = engine.ProfileAnalysis

// Document is a parsed XML document.
type Document = xmldoc.Document

// Strategy selects a physical plan shape (Fig. 7 of the paper).
type Strategy = plan.Strategy

// Plan strategies, in the paper's Fig. 7 order. Push is the default and
// the paper's best performer.
const (
	Naive            = plan.Naive
	InterleaveNoSort = plan.InterleaveNoSort
	InterleaveSort   = plan.InterleaveSort
	Push             = plan.Push
)

// KeywordQuery builds a content-only query (INEX's "CO" topic kind —
// Section 7.1: "The INEX topics consider either content only (i.e.,
// keywords) or content and structure"): any element whose subtree
// contains every phrase, ranked by relevance.
func KeywordQuery(phrases ...string) (*Query, error) {
	if len(phrases) == 0 {
		return nil, fmt.Errorf("pimento: keyword query needs at least one phrase")
	}
	q := tpq.NewQuery("*", tpq.Descendant)
	for _, p := range phrases {
		if strings.TrimSpace(p) == "" {
			return nil, fmt.Errorf("pimento: empty keyword phrase")
		}
		q.Nodes[0].FT = append(q.Nodes[0].FT, tpq.FTPred{Phrase: p})
	}
	return q, nil
}

// ParseQuery parses the query language, e.g.
//
//	//car[./description[. ftcontains "good condition"] and price < 2000]
//	//article[about(.//au, "Jiawei Han")]//abs[about(., "data mining")]
func ParseQuery(src string) (*Query, error) { return tpq.Parse(src) }

// MustParseQuery is ParseQuery for known-good literals; it panics on error.
func MustParseQuery(src string) *Query { return tpq.MustParse(src) }

// ParseProfile parses the profile DSL (see the profile package docs):
// one sr / vor / kor / order / rank declaration per line.
func ParseProfile(src string) (*Profile, error) { return profile.ParseProfile(src) }

// MustParseProfile is ParseProfile for known-good literals.
func MustParseProfile(src string) *Profile { return profile.MustParseProfile(src) }

// Engine answers personalized queries over one indexed XML document.
type Engine struct {
	e *engine.Engine
	// cache, when non-nil (WithCache), answers repeated identical
	// searches from an LRU with single-flight deduplication.
	cache *cache.Cache[*engine.Response]
}

// Options configure Open* and Search.
type options struct {
	pipeline  text.Pipeline
	k         int
	strategy  Strategy
	thesaurus *text.Thesaurus
	thWeight  float64
	scorer    index.Scorer
	cacheSize int
	deadline  time.Duration
}

// Option customizes engine construction or a search.
type Option func(*options)

// WithStemming toggles Porter stemming in the text pipeline (on by
// default, as considered in the paper's Section 7.1).
func WithStemming(on bool) Option {
	return func(o *options) { o.pipeline.Stem = on }
}

// WithStopwords drops common English stopwords during indexing.
func WithStopwords() Option {
	return func(o *options) { o.pipeline.DropStopwords = true }
}

// WithK sets the result size (default 10).
func WithK(k int) Option { return func(o *options) { o.k = k } }

// WithStrategy selects the physical plan (default Push). It is the one
// execution choice a caller makes: the planner picks the candidate
// access path and the worker count (DESIGN.md §9).
func WithStrategy(s Strategy) Option { return func(o *options) { o.strategy = s } }

// Thesaurus maps phrases to synonyms for query expansion; build one with
// NewThesaurus / ParseThesaurus.
type Thesaurus = text.Thesaurus

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus { return text.NewThesaurus() }

// ParseThesaurus reads the line format "phrase = synonym, synonym".
func ParseThesaurus(src string) (*Thesaurus, error) { return text.ParseThesaurus(src) }

// WithThesaurus expands required full-text predicates with optional
// synonym predicates at the given weight (synonym-only matches rank
// below exact matches). Use weight 0 for the default of 0.5.
func WithThesaurus(t *Thesaurus, weight float64) Option {
	return func(o *options) { o.thesaurus = t; o.thWeight = weight }
}

// Scorer is the pluggable base relevance function S — the paper opens
// with the argument that "there is no one scoring function that fits
// all". Engine construction accepts WithScorer; TFIDF (the default),
// BM25 and Boolean are provided.
type Scorer = index.Scorer

// TFIDF is the default scorer: tf/(tf+1) · idf, bounded by 1.
func TFIDF() Scorer { return index.TFIDFScorer{} }

// BM25 is a length-free BM25 variant; k1 <= 0 selects the default 1.2.
func BM25(k1 float64) Scorer { return index.BM25Scorer{K1: k1} }

// Boolean scores every match 1 — pure boolean retrieval.
func Boolean() Scorer { return index.BooleanScorer{} }

// WithScorer selects the base relevance function at engine construction
// (it has no effect as a Search option).
func WithScorer(s Scorer) Option { return func(o *options) { o.scorer = s } }

// WithCache enables an engine-level result cache of n entries at
// construction time (it has no effect as a Search option). Repeated
// identical (query, profile, options) searches are answered from the
// cache — the response is marked Cached and is identical to a cold
// execution — and concurrent identical searches execute only once
// (single-flight). n <= 0 disables caching.
func WithCache(n int) Option { return func(o *options) { o.cacheSize = n } }

// WithDeadline bounds one Search call: when the deadline expires before
// evaluation finishes, the plan's operator loops abort cooperatively
// and Search returns context.DeadlineExceeded — never a silently
// truncated answer list. Use SearchContext to plumb an existing
// context instead.
func WithDeadline(d time.Duration) Option { return func(o *options) { o.deadline = d } }

func collect(opts []Option) options {
	o := options{pipeline: text.DefaultPipeline}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Open parses and indexes an XML document from r.
func Open(r io.Reader, opts ...Option) (*Engine, error) {
	doc, err := xmldoc.Parse(r)
	if err != nil {
		return nil, err
	}
	return OpenDocument(doc, opts...), nil
}

// analysisCacheSize is the per-engine (and per-corpus) analysis-verdict
// cache capacity: profile/query analysis verdicts are small, so repeated
// searches with the same profile skip the Section 5 analyses and flock
// encoding.
const analysisCacheSize = 128

// newCache builds the optional engine-level result cache.
func newCache(o options) *cache.Cache[*engine.Response] {
	if o.cacheSize <= 0 {
		return nil
	}
	return cache.New[*engine.Response](o.cacheSize)
}

// OpenString indexes an XML document held in a string.
func OpenString(src string, opts ...Option) (*Engine, error) {
	return Open(strings.NewReader(src), opts...)
}

// ParseDocument parses XML into a Document without indexing it (use
// OpenDocument or Corpus.Add to index it).
func ParseDocument(src string) (*Document, error) { return xmldoc.ParseString(src) }

// OpenDocument indexes an already-parsed document.
func OpenDocument(doc *Document, opts ...Option) *Engine {
	o := collect(opts)
	e := engine.New(doc, o.pipeline)
	if o.scorer != nil {
		e.Index().SetScorer(o.scorer)
	}
	e.UseAnalysisCache(engine.NewAnalysisCache(analysisCacheSize))
	return &Engine{e: e, cache: newCache(o)}
}

// Document returns the engine's parsed document.
func (e *Engine) Document() *Document { return e.e.Document() }

// Search evaluates q personalized by prof (nil disables personalization)
// and returns the top-k answers ranked by the profile's rank order.
func (e *Engine) Search(q *Query, prof *Profile, opts ...Option) (*Response, error) {
	return e.SearchContext(context.Background(), q, prof, opts...)
}

// SearchContext is Search under a context: when ctx (or the WithDeadline
// option) expires, evaluation aborts cooperatively and SearchContext
// returns the context's error instead of a truncated answer list.
// Responses served from a WithCache cache are shared: treat them as
// read-only.
func (e *Engine) SearchContext(ctx context.Context, q *Query, prof *Profile, opts ...Option) (*Response, error) {
	o := collect(opts)
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	req := engine.Request{
		Query:           q,
		Profile:         prof,
		K:               o.k,
		Strategy:        o.strategy,
		Thesaurus:       o.thesaurus,
		ThesaurusWeight: o.thWeight,
	}
	if _, err := req.Validate(); e.cache == nil || err != nil {
		return e.e.SearchContext(ctx, req) // uncached, or refused: nothing to key
	}
	key := req.CacheKey(e.e.Fingerprint(), e.e.ResolvedParallelism(&req))
	resp, outcome, err := e.cache.DoTagged(ctx, key, nil, func() (*engine.Response, error) {
		return e.e.SearchContext(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	if outcome != cache.Miss {
		hit := *resp // shallow copy so the stored response stays unmarked
		hit.Cached = true
		return &hit, nil
	}
	return resp, nil
}

// Analyze runs the paper's Section 5 static analyses (scoping-rule
// conflicts and application order, query flock, ordering-rule ambiguity)
// without executing the query.
func Analyze(prof *Profile, q *Query) *ProfileAnalysis {
	pa, _ := engine.AnalyzeProfile(context.Background(), nil, prof, q) // un-memoized: cannot fail
	return pa
}

// Diagnostic is one finding of the vet suite: a stable check ID, a
// severity (error | warn | info), the affected rules, and a concrete
// witness (conflict cycle, Lemma 5.1 alternating cycle, contradictory
// predicate pair, ...).
type Diagnostic = analysis.Diagnostic

// Vet runs the profile/query static-analysis suite and returns its
// findings, sorted canonically (byte-stable across runs). q may be nil
// for profile-only checks. A profile with no error-severity diagnostics
// is accepted by Search; one with an error diagnostic is rejected.
func Vet(prof *Profile, q *Query) []Diagnostic { return analysis.Vet(prof, q) }

// VetErrors counts the error-severity findings in a Vet result.
func VetErrors(ds []Diagnostic) int { return analysis.ErrorCount(ds) }

// Save writes a binary snapshot of the engine (document + index) so it
// can be reopened with LoadEngine without re-parsing and re-indexing.
func (e *Engine) Save(w io.Writer) error { return e.e.Save(w) }

// LoadEngine reads a snapshot written by Engine.Save.
func LoadEngine(r io.Reader) (*Engine, error) {
	eng, err := engine.Load(r)
	if err != nil {
		return nil, err
	}
	return &Engine{e: eng}, nil
}

// CorpusResult is one globally ranked answer of a corpus search.
type CorpusResult = corpus.Result

// CorpusResponse is a corpus search outcome.
type CorpusResponse = corpus.Response

// Corpus searches a collection of XML documents, fanning the query out
// in parallel and merging the per-document top-k lists globally.
type Corpus struct {
	c *corpus.Corpus
}

// NewCorpus creates an empty corpus. Text-pipeline options
// (WithStemming, WithStopwords) apply to every document added.
func NewCorpus(opts ...Option) *Corpus {
	o := collect(opts)
	c := corpus.New(o.pipeline)
	c.UseAnalysisCache(engine.NewAnalysisCache(analysisCacheSize))
	return &Corpus{c: c}
}

// Add indexes doc under name (replacing any previous document with that
// name).
func (c *Corpus) Add(name string, doc *Document) { c.c.Add(name, doc) }

// AddXML parses src and adds it under name.
func (c *Corpus) AddXML(name, src string) error { return c.c.AddXML(name, src) }

// Len returns the number of documents in the corpus.
func (c *Corpus) Len() int { return c.c.Len() }

// Save writes the whole corpus (documents + indexes) as one binary
// snapshot.
func (c *Corpus) Save(w io.Writer) error { return c.c.Save(w) }

// LoadCorpus reads a corpus snapshot written by Corpus.Save.
func LoadCorpus(r io.Reader) (*Corpus, error) {
	cc, err := corpus.Load(r)
	if err != nil {
		return nil, err
	}
	return &Corpus{c: cc}, nil
}

// Search personalizes q with prof and evaluates it against every
// document, returning the global top k. Negative WithK values are
// rejected; 0 (the default) resolves to 10.
func (c *Corpus) Search(q *Query, prof *Profile, opts ...Option) (*CorpusResponse, error) {
	return c.SearchContext(context.Background(), q, prof, opts...)
}

// SearchContext is Corpus.Search under a context: the per-document
// fan-out aborts cooperatively when ctx is done (see WithDeadline).
func (c *Corpus) SearchContext(ctx context.Context, q *Query, prof *Profile, opts ...Option) (*CorpusResponse, error) {
	o := collect(opts)
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	return c.c.SearchContext(ctx, q, prof, o.k, o.strategy)
}
