// Package corpus searches collections of XML documents — the setting of
// the paper's INEX study (a collection of IEEE articles). Each document
// gets its own index. A search is the request path's three steps, each
// written once elsewhere and called here: the query passes the Section 5
// gate and is flock-encoded once (engine.Personalize — the rewriting is
// document-independent), the per-document plans run as the units of one
// budgeted drain (plan.Drain), and the per-document top-k lists are
// merged under the profile's rank order into a global top k.
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
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
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
// old, internally consistent view (no torn reads). It is the unsharded
// case of SearchSharded: one unit of work per document, no deadline
// carve, never degraded.
func (s *Snapshot) SearchContext(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy) (*Response, error) {
	resp, err := s.SearchSharded(ctx, q, prof, k, strat, ShardOptions{})
	if err != nil {
		return nil, err
	}
	return &resp.Response, nil
}

// unit is one schedulable piece of a fan-out: the documents one
// goroutine evaluates back to back. The unsharded fan-out's units are
// single documents; the sharded one's are the ring shards.
type unit struct {
	id    int // reported in TimedOutShards when the unit is dropped
	names []string
}

// fanOut is the one budgeted drain behind every corpus search. It
// evaluates the query against each unit's documents — per-document
// plans run strictly sequentially (Parallelism 1): the fan-out itself
// is the parallelism — and merges the units' local top-k lists into
// the global top k.
//
// carve > 0 grants each unit that fraction of the request's remaining
// deadline (shardContext); a unit that exhausts its carve while the
// request is still alive is dropped from the merge and reported in
// TimedOutShards. With carve == 0 a unit runs under ctx itself, so it
// can only time out together with the request, and a dead request
// returns ctx's error — never a partial merge. unitStart, when non-nil,
// runs at the start of each unit (ShardOptions.ShardStart).
func (s *Snapshot) fanOut(ctx context.Context, q *tpq.Query, prof *profile.Profile, k int, strat plan.Strategy, units []unit, carve float64, unitStart func(id int)) (*ShardedResponse, error) {
	k, err := (&engine.Request{Query: q, K: k}).Validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()

	encoded, applied, err := engine.Personalize(ctx, s.c.ac, prof, q)
	if err != nil {
		return nil, err
	}

	type unitResult struct {
		hits     []docHit
		timedOut bool
		err      error
	}
	results := make([]unitResult, len(units))
	plan.Drain(s.c.budget, len(units), func(j int) {
		if algebra.ContextErr(ctx) != nil {
			return // fan-out aborted before this unit's turn
		}
		u, res, uctx := units[j], &results[j], ctx
		if carve > 0 {
			var cancel context.CancelFunc
			uctx, cancel = shardContext(ctx, carve)
			defer cancel()
		}
		if unitStart != nil {
			unitStart(u.id)
		}
		for _, name := range u.names {
			if algebra.ContextErr(uctx) != nil {
				break
			}
			p, err := plan.BuildWith(s.entries[name].idx, encoded, prof, k,
				plan.Options{Strategy: strat, Parallelism: 1})
			if err != nil {
				res.err = fmt.Errorf("corpus: %s: %w", name, err)
				return
			}
			answers, err := p.ExecuteContext(uctx)
			p.Release()
			if err != nil {
				break // uctx expired mid-plan; classified below
			}
			for _, a := range answers {
				res.hits = append(res.hits, docHit{doc: name, a: a})
			}
		}
		if algebra.ContextErr(uctx) != nil {
			// Whether the request died too is decided once, after the
			// drain; if it did not, only this unit is dropped.
			res.hits, res.timedOut = nil, true
			return
		}
		if len(res.hits) > k {
			// Local top k under the global comparator: anything ranked
			// below a unit's own kth answer cannot appear in the merged
			// top k.
			res.hits = rankHits(res.hits, prof, k)
		}
	})

	if err := algebra.ContextErr(ctx); err != nil {
		return nil, err
	}
	var (
		all      []docHit
		timedOut []int
		docs     int
	)
	for j, r := range results {
		switch {
		case r.err != nil:
			return nil, r.err
		case r.timedOut:
			timedOut = append(timedOut, units[j].id)
		default:
			all = append(all, r.hits...)
			docs += len(units[j].names)
		}
	}
	resp := s.materialize(rankHits(all, prof, k), applied, docs, time.Since(start))
	return &ShardedResponse{
		Response:       *resp,
		Degraded:       len(timedOut) > 0,
		TimedOutShards: timedOut,
	}, nil
}

// docHit is one pre-merge answer: an algebra answer tagged with the
// document it came from.
type docHit struct {
	doc string
	a   algebra.Answer
}

// rankHits sorts hits under the profile's total rank order — rank,
// then document name, then node, so the order is deterministic — and
// truncates to the top k. The final merge and every unit's local top k
// go through this one comparator; the sharded/unsharded
// byte-equivalence depends on them agreeing.
func rankHits(hits []docHit, prof *profile.Profile, k int) []docHit {
	ranker := algebra.NewRanker(prof)
	mode := algebra.ModeForProfile(prof)
	sort.SliceStable(hits, func(i, j int) bool {
		cmp := ranker.Compare(&hits[i].a, &hits[j].a, mode)
		if cmp != 0 {
			return cmp > 0
		}
		if hits[i].doc != hits[j].doc {
			return hits[i].doc < hits[j].doc
		}
		return hits[i].a.Node < hits[j].a.Node
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
