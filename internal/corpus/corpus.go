// Package corpus searches collections of XML documents — the setting of
// the paper's INEX study (a collection of IEEE articles). Each document
// gets its own index. A search is the request path's three steps, each
// written once elsewhere and called here: the query passes the Section 5
// gate and is flock-encoded once (engine.Personalize — the rewriting is
// document-independent), the per-document plans run as the units of one
// budgeted drain (plan.Drain), and the per-document top-k lists are
// merged under the profile's rank order into a global top k.
//
// The documents of one search share a k-th threshold: every plan's
// prunes load and publish it (algebra.SharedBound). Under rank K,V,S the
// documents run best K bound first (plan.KBound), and one whose bound the
// threshold beats is skipped before its plan is built.
//
// Snapshot.SearchContext is the one served fan-out. The consistent-hash
// shard ring (shard.go) is a scatter over the same per-document drain,
// kept only for the benchmark row that measures it.
//
// The corpus is *live*: documents can be added, replaced and deleted
// while searches are in flight. All reads go through an immutable
// copy-on-write Snapshot behind one atomic pointer — a search loads the
// pointer once and keeps a consistent view of every document, index and
// fingerprint for its whole execution, no matter how many swaps land
// meanwhile. Writers build the replacement per-document index off the
// swap path (Prepare), then publish a new snapshot under a short
// critical section (Commit/Delete). Every mutation bumps a monotonic
// corpus generation; each entry's fingerprint is stamped with the
// generation it was written at, so cache keys derived from a fingerprint
// can never alias across generations — not even when a document is
// replaced with byte-identical content.
//
// Caveat, as in any federated ranking: the query score S is tf·idf with
// per-document statistics, so S values are comparable across documents
// only to the extent their term statistics are; K (keyword-OR score) and
// V (value preferences) are statistics-light and merge cleanly. This
// mirrors how INEX participants merge per-article scores.
package corpus

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// Entry is one immutable (document, index) pair inside a snapshot,
// stamped with the corpus generation at which it was written.
type Entry struct {
	name string
	doc  *xmldoc.Document
	idx  *index.Index
	gen  uint64
}

// Name returns the entry's registered document name.
func (e *Entry) Name() string { return e.name }

// Document returns the entry's document.
func (e *Entry) Document() *xmldoc.Document { return e.doc }

// Index returns the entry's prebuilt index.
func (e *Entry) Index() *index.Index { return e.idx }

// Generation returns the corpus generation at which this entry was
// written (monotonically increasing across all mutations).
func (e *Entry) Generation() uint64 { return e.gen }

// Fingerprint returns the entry's generation-stamped fingerprint:
// the content hash qualified by the write generation. The stamp
// guarantees that cache keys minted against one write of a name can
// never be satisfied after a replacement — even a replacement with
// byte-identical content gets a fresh key space, which is what makes
// targeted cache invalidation sound (DESIGN.md §14).
func (e *Entry) Fingerprint() string {
	return index.ContentFingerprint(e.idx) + "@g" + strconv.FormatUint(e.gen, 10)
}

// Snapshot is one immutable view of the corpus: a consistent set of
// entries plus the corpus generation at capture time. Searches resolve
// every lookup (existence, fingerprint, index, document) against one
// snapshot so a concurrent swap can never mix generations mid-request.
type Snapshot struct {
	c       *Corpus
	names   []string // insertion order
	entries map[string]*Entry
	gen     uint64

	fpOnce sync.Once
	fp     string
}

// Generation returns the corpus generation this snapshot was taken at.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Len returns the number of documents in the snapshot.
func (s *Snapshot) Len() int { return len(s.names) }

// Names returns the document names in insertion order.
func (s *Snapshot) Names() []string { return append([]string(nil), s.names...) }

// Entry returns a document's entry by name.
func (s *Snapshot) Entry(name string) (*Entry, bool) {
	e, ok := s.entries[name]
	return e, ok
}

// Fingerprint combines the snapshot generation with every entry's
// generation-stamped fingerprint into the snapshot's registry
// fingerprint (sorted by name, so document insertion order does not
// split caches keyed on it). The generation is folded in so the
// fingerprint moves strictly forward across mutations — without it, a
// put followed by a delete restores the old entry set and would revert
// the fingerprint, re-opening a retired fan-out key space. Fan-out
// cache entries are invalidated on every mutation regardless, so the
// stamp costs no cache reuse. Computed once per snapshot and cached —
// fan-out cache-key derivation after the first is a pointer load.
func (s *Snapshot) Fingerprint() string {
	s.fpOnce.Do(func() {
		names := append([]string(nil), s.names...)
		sort.Strings(names)
		h := sha256.New()
		fmt.Fprintf(h, "gen=%d;", s.gen)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%s;", n, s.entries[n].Fingerprint())
		}
		s.fp = "corpus:" + hex.EncodeToString(h.Sum(nil)[:16])
	})
	return s.fp
}

// Corpus is a set of named, indexed XML documents behind an atomically
// swappable snapshot.
type Corpus struct {
	pipe text.Pipeline

	// budget, when set via SetBudget, gates the fan-out's helper
	// goroutines. Nil falls back to a private per-call allowance of
	// GOMAXPROCS-1 helpers (the library default; see plan.Drain).
	budget plan.WorkerBudget

	// ac, when set via UseAnalysisCache, memoizes engine.Personalize, the
	// fan-out's document-independent step.
	ac *engine.AnalysisCache

	// wmu serializes writers; readers never take it. The snapshot
	// pointer is the only shared mutable state.
	wmu  sync.Mutex
	snap atomic.Pointer[Snapshot]
}

// SetBudget shares a goroutine budget with the fan-out: helper
// goroutines beyond the caller's own spawn only while the budget grants
// tokens. The serving layer passes the scheduler's budget here — the
// same one plan execution draws from — so fan-out × per-query workers
// can never multiply into GOMAXPROCS² goroutines (the old private
// semaphore allowed exactly that). Call before serving traffic; the
// budget is read without synchronization.
func (c *Corpus) SetBudget(b plan.WorkerBudget) { c.budget = b }

// UseAnalysisCache attaches a (possibly shared) analysis cache, as
// Engine.UseAnalysisCache does for one document; the serving layer
// passes the one its single-document searches use. Call before serving
// traffic; the field is read without synchronization.
func (c *Corpus) UseAnalysisCache(ac *engine.AnalysisCache) { c.ac = ac }

// New creates an empty corpus with the given text pipeline.
func New(pipe text.Pipeline) *Corpus {
	c := &Corpus{pipe: pipe}
	c.snap.Store(&Snapshot{c: c, entries: map[string]*Entry{}})
	return c
}

// Snapshot returns the current immutable view. Callers that need a
// consistent multi-step read (check existence, derive a cache key, then
// execute) MUST resolve every step against one returned snapshot; it
// is the only read path besides Len and the Search conveniences.
func (c *Corpus) Snapshot() *Snapshot { return c.snap.Load() }

// Mutation describes one applied corpus mutation.
type Mutation struct {
	// Op is "put" or "delete".
	Op string
	// Name is the mutated document's name.
	Name string
	// Gen is the corpus generation after the mutation; the mutated
	// entry (for puts) is stamped with it.
	Gen uint64
	// Created is true when a put introduced a new name.
	Created bool
	// Nodes is the document's node count (puts only).
	Nodes int
}

// Prepared is an indexed document ready to be swapped into the corpus.
// Building it is the expensive part of a mutation (index construction
// plus content hashing) and happens outside every lock, so concurrent
// searches — and other writers — are never blocked behind it.
type Prepared struct {
	doc *xmldoc.Document
	ix  *index.Index
}

// Nodes returns the prepared document's node count.
func (p *Prepared) Nodes() int { return p.doc.Len() }

// Prepare indexes and fingerprints doc for a later Commit. It takes no
// locks.
func (c *Corpus) Prepare(doc *xmldoc.Document) *Prepared {
	return &Prepared{doc: doc, ix: index.Build(doc, c.pipe)}
}

// Commit swaps a prepared document in under name, replacing any
// previous entry, and publishes a new snapshot. The critical section is
// map-copy sized — the index build already happened in Prepare.
func (c *Corpus) Commit(name string, p *Prepared) Mutation {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	old := c.snap.Load()
	gen := old.gen + 1
	e := &Entry{name: name, doc: p.doc, idx: p.ix, gen: gen}
	ns := &Snapshot{c: c, gen: gen, entries: make(map[string]*Entry, len(old.entries)+1)}
	for k, v := range old.entries {
		ns.entries[k] = v
	}
	_, existed := old.entries[name]
	ns.entries[name] = e
	ns.names = old.names
	if !existed {
		ns.names = append(append([]string(nil), old.names...), name)
	}
	c.snap.Store(ns)
	return Mutation{Op: "put", Name: name, Gen: gen, Created: !existed, Nodes: p.doc.Len()}
}

// Put is Prepare followed by Commit: index doc off-lock, then swap it
// in under name.
func (c *Corpus) Put(name string, doc *xmldoc.Document) Mutation {
	return c.Commit(name, c.Prepare(doc))
}

// Delete removes name and publishes a new snapshot. It reports false —
// and publishes nothing — when the name is not registered.
func (c *Corpus) Delete(name string) (Mutation, bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	old := c.snap.Load()
	if _, ok := old.entries[name]; !ok {
		return Mutation{}, false
	}
	gen := old.gen + 1
	ns := &Snapshot{c: c, gen: gen, entries: make(map[string]*Entry, len(old.entries)-1)}
	for k, v := range old.entries {
		if k != name {
			ns.entries[k] = v
		}
	}
	ns.names = make([]string, 0, len(old.names)-1)
	for _, n := range old.names {
		if n != name {
			ns.names = append(ns.names, n)
		}
	}
	c.snap.Store(ns)
	return Mutation{Op: "delete", Name: name, Gen: gen}, true
}

// Add indexes doc under name. Adding a name twice replaces the document.
// It is Put without the returned Mutation — the original library API.
func (c *Corpus) Add(name string, doc *xmldoc.Document) {
	c.Put(name, doc)
}

// AddXML parses src and adds it under name.
func (c *Corpus) AddXML(name, src string) error {
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		return fmt.Errorf("corpus: %s: %w", name, err)
	}
	c.Add(name, doc)
	return nil
}

// Len returns the number of documents.
func (c *Corpus) Len() int { return c.snap.Load().Len() }

// Result is one globally ranked answer.
type Result struct {
	DocName string
	Node    xmldoc.NodeID
	Path    string
	S, K    float64
	Snippet string
}

// Response is a corpus search outcome.
type Response struct {
	Results    []Result
	AppliedSRs []string
	Elapsed    time.Duration
	// DocsSearched is the number of documents the query ran against.
	DocsSearched int
	// DocsSkipped counts the documents among them that the shared k-th
	// beat before their plan was built.
	DocsSkipped int
}

// Search personalizes q with prof (once — the rewriting is document-
// independent), evaluates it against every document in parallel, and
// merges the per-document top-k lists into the global top k.
func (c *Corpus) Search(q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy) (*Response, error) {
	//pimento:allow ctxbg context-free public entry point whose contract is run-to-completion; cancellable callers use SearchContext
	return c.Snapshot().SearchContext(context.Background(), q, prof, k, strat)
}

// SearchContext is Search under a context, evaluated against the
// snapshot current at call time: per-document executions carry
// cancellation checkpoints, documents whose turn comes after the
// context is done are skipped outright, and a cancelled fan-out returns
// ctx's error instead of a partial merge.
func (c *Corpus) SearchContext(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy) (*Response, error) {
	return c.Snapshot().SearchContext(ctx, q, prof, k, strat)
}

// SearchContext evaluates the query against exactly this snapshot's
// documents — mutations committed after the snapshot was taken are
// invisible, so a search admitted before a swap completes against the
// old, internally consistent view (no torn reads). It is the corpus's
// one served fan-out: validate and personalize once, rank every
// document, materialize the merged top k.
func (s *Snapshot) SearchContext(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy) (*Response, error) {
	start := time.Now()
	k, encoded, applied, err := s.personalize(ctx, q, prof, k)
	if err != nil {
		return nil, err
	}
	m := newMerge(prof)
	hits, skipped, err := s.rank(ctx, encoded, prof, k, strat, s.names, m)
	if err != nil {
		return nil, err
	}
	resp := s.materialize(hits, applied, len(s.names), time.Since(start))
	resp.DocsSkipped = skipped
	return resp, nil
}

// personalize validates the request and runs the query through the
// Section 5 gate and flock encoding once for every document.
func (s *Snapshot) personalize(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int) (int, *tpq.Query, []string, error) {
	k, err := (&engine.Request{Query: q, K: k}).Validate()
	if err != nil {
		return 0, nil, nil, err
	}
	encoded, applied, err := engine.Personalize(ctx, s.c.ac, prof, q)
	return k, encoded, applied, err
}

// planRan, when non-nil, sees each fan-out plan after it ran and before
// its release: the seam TestFanoutWorkPinned counts the work through.
var planRan func(*plan.Plan)

// rank runs the encoded query over the named documents, one budgeted
// drain unit each (a plan runs sequentially: the fan-out is the
// parallelism), and returns their merged top k and how many it skipped
// under their shared k-th threshold. A dead ctx returns its error, never
// a partial merge.
func (s *Snapshot) rank(ctx context.Context, encoded *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, names []string, m merge) ([]docHit, int, error) {
	type doc struct {
		name  string
		bound float64
		hits  []docHit
		skip  bool
		err   error
	}
	docs := make([]doc, len(names))
	for i, name := range names {
		docs[i] = doc{name: name, bound: plan.KBound(s.entries[name].idx, encoded, prof)}
	}
	slices.SortStableFunc(docs, func(a, b doc) int { return cmp.Compare(b.bound, a.bound) })
	shared := algebra.NewSharedBound()
	plan.Drain(s.c.budget, len(docs), func(j int) {
		d := &docs[j]
		if algebra.ContextErr(ctx) != nil {
			return // fan-out aborted before this document's turn
		}
		if shared.Threshold() > d.bound {
			d.skip = true
			return
		}
		p, err := plan.BuildWith(s.entries[d.name].idx, encoded, prof, k,
			plan.Options{Strategy: strat, Parallelism: 1, Shared: shared})
		if err != nil {
			d.err = fmt.Errorf("corpus: %s: %w", d.name, err)
			return
		}
		answers, err := p.ExecuteContext(ctx)
		if planRan != nil {
			planRan(p)
		}
		p.Release()
		if err != nil {
			return // ctx died mid-plan; reported after the drain
		}
		for _, a := range answers {
			d.hits = append(d.hits, docHit{doc: d.name, a: a})
		}
	})

	if err := algebra.ContextErr(ctx); err != nil {
		return nil, 0, err
	}
	var (
		all     []docHit
		skipped int
	)
	for _, d := range docs {
		if d.err != nil {
			return nil, 0, d.err
		}
		if d.skip {
			skipped++
		}
		all = append(all, d.hits...)
	}
	return m.top(all, k), skipped, nil
}

// docHit is one pre-merge answer: an algebra answer tagged with the
// document it came from.
type docHit struct {
	doc string
	a   algebra.Answer
}

// merge is the fan-out's one comparator, built once per search: the
// profile's rank order, then document name, then node. No two hits
// share a document and a node, so the order is total and the merged top
// k is the same whatever order the hits arrive in.
type merge struct {
	ranker *algebra.Ranker
	mode   algebra.Mode
}

func newMerge(prof *profile.Profile) merge {
	return merge{algebra.NewRanker(prof), algebra.ModeForProfile(prof)}
}

// top sorts hits under the order and truncates them to the top k.
func (m merge) top(hits []docHit, k int) []docHit {
	slices.SortFunc(hits, func(a, b docHit) int {
		if c := m.ranker.Compare(&a.a, &b.a, m.mode); c != 0 {
			return -c
		}
		if c := strings.Compare(a.doc, b.doc); c != 0 {
			return c
		}
		return cmp.Compare(a.a.Node, b.a.Node)
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// materialize resolves ranked hits into wire results (paths and
// snippets) against this snapshot's documents.
func (s *Snapshot) materialize(hits []docHit, applied []string, docsSearched int, elapsed time.Duration) *Response {
	resp := &Response{
		AppliedSRs:   applied,
		Elapsed:      elapsed,
		DocsSearched: docsSearched,
	}
	for _, h := range hits {
		doc := s.entries[h.doc].doc
		resp.Results = append(resp.Results, Result{
			DocName: h.doc,
			Node:    h.a.Node,
			Path:    doc.Path(h.a.Node),
			S:       h.a.S,
			K:       h.a.K,
			Snippet: clip(doc.TextContent(h.a.Node), 90),
		})
	}
	return resp
}

// clip cuts s to at most n bytes plus an ellipsis, backing the cut up
// to a rune boundary so a multi-byte rune straddling byte n is dropped
// whole rather than split into invalid UTF-8.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}
