// Package index implements the indexing substrate Section 6.4 of the
// paper relies on: "We rely on inverted indices on keywords and on an
// index per distinct tag."
//
// The inverted index is positional: every token occurrence carries a
// global sequence number so that phrase predicates such as
// ftcontains(., "good condition") resolve to contiguous occurrences
// within one text node. Element-scope probes (does element e contain an
// occurrence of phrase p anywhere below it?) are region tests against
// the phrase's sorted occurrence list.
//
// Both indexes are flat: one arena of positions (or element IDs) and an
// offsets table per index, laid out by Build in one walk of the document
// plus a count-and-fill pass (DESIGN.md §6.7). The same walk builds the
// dataguide and the content fingerprint.
//
// Scoring has one implementation, PhraseList: a (tag, phrase) pair
// resolved once — occurrence list, df, n, scorer, a small tf → score
// table — and probed with a forward cursor (SeekGE) that exploits
// candidates arriving in document order and falls back to binary search
// when a probe is behind it. Plans resolve their lists at build time and
// run the keyword joins as merges; Index.Score, TF, Contains, DF and
// MaxPhraseScore are thin callers of the same code. Build resolves no
// phrase, and a resolved PhraseList (its cursor, its score tables) is
// never cached across requests: only the occurrence, containing-element
// and max-score caches below outlive a plan. The containing-element
// lists (Containing) are the twig join's keyword-restricted streams and
// their lengths are the scorer's df.
package index

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// Index holds the per-tag element index and the positional inverted
// keyword index for one document, each a table: one flat arena and an
// offsets table. An Index is safe for concurrent readers: the derived
// caches are immutable copy-on-write snapshots behind atomic pointers,
// so the per-candidate scoring hot path never takes a lock. Cache
// misses copy the snapshot under a writer mutex; a plan build warms
// every (tag, phrase) pair its query needs, so steady-state execution
// is miss-free.
type Index struct {
	doc  *xmldoc.Document
	pipe text.Pipeline

	tags     table[xmldoc.NodeID] // tag -> its elements, document order
	allElems []xmldoc.NodeID      // every element, document order
	terms    table[int32]         // normalized term -> its sorted global token positions
	seqNode  []xmldoc.NodeID      // global token position -> its text node

	guide *Dataguide // strong dataguide (path summary), built with the index

	scorer Scorer // nil means TFIDFScorer

	// fp caches ContentFingerprint: Build computes it in its own walk,
	// SetScorer drops it (the hash covers the scorer's name), Load leaves
	// it to the first caller.
	fp atomic.Pointer[string]

	// cacheMu serializes cache writers only; readers atomically load the
	// current snapshot and never block. Snapshots are never mutated after
	// publication. Concurrent misses may compute the same entry twice —
	// results are deterministic, so duplicated work is the only cost.
	cacheMu       sync.Mutex
	phraseCache   atomic.Pointer[map[string][]int32]    // raw phrase -> sorted text-node starts
	maxScoreCache atomic.Pointer[map[tagPhrase]float64] // max element score per tag+phrase
	containCache  atomic.Pointer[map[elemsKey]elemList] // Containing and WithValue lists, rank sets once asked for
}

// tagPhrase is a composite cache key (a struct key avoids allocating
// concatenated strings on the per-candidate scoring path).
type tagPhrase struct{ tag, phrase string }

// elemsKey keys the element-list cache: Containing's (tag, phrase) or,
// with byValue set, WithValue's (tag, attr, constant), attr in phrase's
// place.
type elemsKey struct {
	tagPhrase
	byValue bool
	val     tpq.Value
}

// elemList is a cached Containing or WithValue list and, once
// ContainingSet or WithValueSet asks for it, its rank set.
type elemList struct {
	ids []xmldoc.NodeID
	set []uint64 // nil until asked for
}

// table is a set of named lists in CSR form: a name maps to a dense ID
// and list id is arena[off[id]:off[id+1]] — a string table and two flat
// arrays, however many lists there are.
type table[T ~int32] struct {
	id    map[string]uint32
	off   []int32
	arena []T
}

// list returns name's list, nil when there is none.
func (t *table[T]) list(name string) []T {
	id, ok := t.id[name]
	if !ok {
		return nil
	}
	return t.arena[t.off[id]:t.off[id+1]]
}

// intern returns name's ID, the next unused one on first sight, and
// keeps counts one entry per ID.
func (t *table[T]) intern(name string, counts *[]int32) uint32 {
	id, ok := t.id[name]
	if !ok {
		id = uint32(len(t.id))
		t.id[name] = id
		*counts = append(*counts, 0)
	}
	return id
}

// layout allocates off and arena, once and at their final size, for
// lists of the given lengths, and turns counts into each list's fill
// cursor.
func (t *table[T]) layout(counts []int32) {
	t.off = make([]int32, len(counts)+1)
	for i, c := range counts {
		t.off[i+1] = t.off[i] + c
	}
	t.arena = make([]T, t.off[len(counts)])
	copy(counts, t.off)
}

// droppedTerm marks a surface form the pipeline drops (a stopword).
const droppedTerm = ^uint32(0)

// Build indexes doc under pipe. One walk over the document's nodes feeds the
// dataguide, the content fingerprint and the vocabulary: each distinct
// surface form is normalized (lower-cased, stemmed) once and interned
// to a dense term ID, and a token position records only that ID. The
// per-term and per-tag lists are then laid out by count, prefix sum and
// fill.
func Build(doc *xmldoc.Document, pipe text.Pipeline) *Index {
	n := doc.Len()
	ix := &Index{doc: doc, pipe: pipe}
	ix.tags.id, ix.terms.id = make(map[string]uint32), make(map[string]uint32)
	ix.resetCaches()
	gb := newGuideBuilder(n)
	fp := newFingerprinter(ix)

	var (
		surface = make(map[string]uint32) // raw surface form -> term ID
		counts  []int32                   // term ID -> occurrences
		termAt  = make([]uint32, 0, n)    // global token position -> term ID
		node    xmldoc.NodeID
	)
	ix.seqNode = make([]xmldoc.NodeID, 0, n) // about a token per node; append settles the rest
	intern := func(raw string, _ int) {
		t, seen := surface[raw]
		if !seen {
			t = droppedTerm
			if term, ok := pipe.Normalize(raw); ok {
				t = ix.terms.intern(term, &counts)
			}
			surface[raw] = t
		}
		if t != droppedTerm {
			counts[t]++
			termAt = append(termAt, t)
			ix.seqNode = append(ix.seqNode, node)
		}
	}
	for node = 0; int(node) < n; node++ {
		fp.node(node)
		if doc.Kind(node) == xmldoc.Element {
			gb.visit(node, doc.Tag(node), doc.Level(node))
		} else {
			text.EachToken(doc.Text(node), intern)
		}
	}
	ix.guide = gb.g
	fp.finish()

	// Positions ascend within a term because the fill visits them in
	// order.
	ix.terms.layout(counts)
	for pos, t := range termAt {
		ix.terms.arena[counts[t]] = int32(pos)
		counts[t]++
	}

	// The per-tag lists are read off the dataguide: a guide node has one
	// tag and knows how many elements map to it.
	tagOf := make([]uint32, gb.g.Len()) // guide node -> tag ID
	counts = counts[:0]
	for gn, tag := range gb.g.tag {
		tagOf[gn] = ix.tags.intern(tag, &counts)
		counts[tagOf[gn]] += gb.g.count[gn]
	}
	ix.tags.layout(counts)
	ix.allElems = make([]xmldoc.NodeID, 0, len(ix.tags.arena))
	for id, gn := range gb.g.elem {
		if gn >= 0 {
			t := tagOf[gn]
			ix.tags.arena[counts[t]] = xmldoc.NodeID(id)
			counts[t]++
			ix.allElems = append(ix.allElems, xmldoc.NodeID(id))
		}
	}
	return ix
}

// Document returns the indexed document.
func (ix *Index) Document() *xmldoc.Document { return ix.doc }

// Pipeline returns the text pipeline the index was built with.
func (ix *Index) Pipeline() text.Pipeline { return ix.pipe }

// Elements returns the IDs of all elements with the given tag, in document
// order; the wildcard tag "*" returns every element. The returned slice
// is shared and must not be modified.
func (ix *Index) Elements(tag string) []xmldoc.NodeID {
	if tag == "*" {
		return ix.allElems
	}
	return ix.tags.list(tag)
}

// TagCount returns the number of elements with the given tag ("*" counts
// all elements).
func (ix *Index) TagCount(tag string) int { return len(ix.Elements(tag)) }

// Tags returns all distinct element tags, sorted.
func (ix *Index) Tags() []string {
	out := make([]string, 0, len(ix.tags.id))
	for t := range ix.tags.id {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// NumTokens returns the total number of indexed token occurrences.
func (ix *Index) NumTokens() int { return len(ix.seqNode) }

// resetCaches installs fresh empty cache snapshots (build time and
// scorer changes). Callers that can race with readers must hold cacheMu.
func (ix *Index) resetCaches() {
	phrase := make(map[string][]int32)
	maxScore := make(map[tagPhrase]float64)
	contain := make(map[elemsKey]elemList)
	ix.phraseCache.Store(&phrase)
	ix.maxScoreCache.Store(&maxScore)
	ix.containCache.Store(&contain)
}

// cachePut publishes snapshot' = snapshot ∪ {key: val} under cacheMu.
// The copy is cheap: cache key spaces are bounded by the distinct
// phrases and tags of the running queries, not by the document.
func cachePut[K comparable, V any](mu *sync.Mutex, p *atomic.Pointer[map[K]V], key K, val V) {
	mu.Lock()
	defer mu.Unlock()
	old := *p.Load()
	next := make(map[K]V, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = val
	p.Store(&next)
}

// phraseOccurrences returns the sorted Start positions (== NodeIDs) of the
// text nodes holding each occurrence of phrase; an occurrence is a run of
// the phrase's normalized terms at consecutive global positions inside a
// single text node. Results are cached per phrase.
func (ix *Index) phraseOccurrences(phrase string) []int32 {
	// Cache by the raw phrase: predicates reuse identical strings, and
	// probing must not re-tokenize per candidate.
	if occ, ok := (*ix.phraseCache.Load())[phrase]; ok {
		return occ
	}

	terms := ix.pipe.NormalizePhrase(phrase)
	var occ []int32
	if len(terms) == 0 {
		occ = []int32{}
	} else {
		occ = ix.computePhrase(terms)
	}
	cachePut(&ix.cacheMu, &ix.phraseCache, phrase, occ)
	return occ
}

func (ix *Index) computePhrase(terms []string) []int32 {
	// Resolve every term's list once; start from the rarest to keep the
	// candidate list short.
	lists := make([][]int32, len(terms))
	rarest := 0
	for i, t := range terms {
		lists[i] = ix.terms.list(t)
		if len(lists[i]) == 0 {
			return []int32{}
		}
		if len(lists[i]) < len(lists[rarest]) {
			rarest = i
		}
	}
	var out []int32
	for _, p := range lists[rarest] {
		start := p - int32(rarest)
		if start < 0 || int(start)+len(terms) > len(ix.seqNode) {
			continue
		}
		node := ix.seqNode[start]
		match := true
		for j, list := range lists {
			pos := start + int32(j)
			if ix.seqNode[pos] != node {
				match = false
				break
			}
			if j == rarest {
				continue
			}
			if _, found := slices.BinarySearch(list, pos); !found {
				match = false
				break
			}
		}
		if match {
			out = append(out, int32(node))
		}
	}
	// The rarest list ascends, so the starts do, so their text nodes do
	// (duplicates kept: several occurrences per node): out is sorted as
	// built.
	return out
}

// Contains reports whether element elem contains at least one occurrence
// of phrase anywhere in its subtree — the paper's ftcontains predicate.
func (ix *Index) Contains(elem xmldoc.NodeID, phrase string) bool {
	return ix.TF(elem, phrase) > 0
}

// TF returns the number of occurrences of phrase within elem's subtree.
func (ix *Index) TF(elem xmldoc.NodeID, phrase string) int {
	p := ix.Phrase("*", phrase)
	return p.TF(elem)
}

// DF returns the number of elements with the given tag whose subtree
// contains phrase — the document-frequency analog used by idf. The
// wildcard tag "*" counts over every element.
func (ix *Index) DF(tag, phrase string) int { return len(ix.Containing(tag, phrase)) }

// Score returns the relevance contribution of phrase to element elem,
// normalized into [0, Bound]. The paper leaves the base scoring function
// S open ("there is no one scoring function that fits all"), so the
// function is pluggable (SetScorer); the default is a bounded tf·idf.
// The bound per predicate is what makes query-scorebound (Section 6.2,
// Algorithm 1) a sound conservative estimate.
func (ix *Index) Score(elem xmldoc.NodeID, phrase string) float64 {
	// A "*" list scores an element under its own tag, which is this
	// method's contract; callers that probe many elements resolve a
	// PhraseList once instead.
	p := ix.Phrase("*", phrase)
	return p.Score(elem)
}

// Containing returns the elements with the given tag ("*": every
// element) whose subtree holds an occurrence of phrase, in document
// order. Lists are cached per (tag, phrase): computing one probes the
// tag's whole element list, so the scorer's df (its length) and the twig
// join's keyword-restricted streams pay for it once. The returned slice
// is shared and must not be modified.
func (ix *Index) Containing(tag, phrase string) []xmldoc.NodeID {
	key := elemsKey{tagPhrase: tagPhrase{tag, phrase}}
	if v, ok := (*ix.containCache.Load())[key]; ok {
		return v.ids
	}
	p := ix.Phrase("*", phrase)
	out := []xmldoc.NodeID{} // never nil: an empty list is still a twig join stream
	for _, e := range ix.Elements(tag) {
		if p.TF(e) > 0 {
			out = append(out, e)
		}
	}
	cachePut(&ix.cacheMu, &ix.containCache, key, elemList{ids: out})
	return out
}

// ContainingSet returns Containing(tag, phrase)'s rank set: bit i of
// word i/64 is set when Elements(tag)[i] is in the list, and the set has
// ⌈len(Elements(tag))/64⌉ words. It is built on first use, in one walk
// of the tag list, and cached beside the list. The returned slice is
// shared and must not be modified.
func (ix *Index) ContainingSet(tag, phrase string) []uint64 {
	return ix.rankSet(elemsKey{tagPhrase: tagPhrase{tag, phrase}}, ix.Containing(tag, phrase))
}

// WithValue returns the elements with the given tag whose x.attr,
// resolved as Document.DeepValue resolves it, equals c under
// tpq.Value.Compare, in document order: the class a form-(1) ordering
// rule x.attr = c ranks first. Lists are cached per (tag, attr, c) beside
// Containing's; c must not be NaN, which no map key equals. The returned
// slice is shared and must not be modified.
func (ix *Index) WithValue(tag, attr string, c tpq.Value) []xmldoc.NodeID {
	key := elemsKey{tagPhrase{tag, attr}, true, c}
	if v, ok := (*ix.containCache.Load())[key]; ok {
		return v.ids
	}
	out := []xmldoc.NodeID{}
	for _, e := range ix.Elements(tag) {
		if raw, ok := ix.doc.DeepValue(e, attr); ok {
			if r, ok := c.Compare(raw); ok && r == 0 {
				out = append(out, e)
			}
		}
	}
	cachePut(&ix.cacheMu, &ix.containCache, key, elemList{ids: out})
	return out
}

// WithValueSet returns WithValue(tag, attr, c)'s rank set, as
// ContainingSet returns Containing's.
func (ix *Index) WithValueSet(tag, attr string, c tpq.Value) []uint64 {
	return ix.rankSet(elemsKey{tagPhrase{tag, attr}, true, c}, ix.WithValue(tag, attr, c))
}

// rankSet returns the rank set cached under key or, on first ask, builds
// ids' set over key's tag list, a superset of ids in the same order, and
// publishes it with the list.
func (ix *Index) rankSet(key elemsKey, ids []xmldoc.NodeID) []uint64 {
	if v := (*ix.containCache.Load())[key]; v.set != nil {
		return v.set
	}
	elems := ix.Elements(key.tag)
	set, j := make([]uint64, (len(elems)+63)/64), 0
	for i, e := range elems {
		if j < len(ids) && ids[j] == e {
			set[i/64] |= 1 << (i % 64)
			j++
		}
	}
	cachePut(&ix.cacheMu, &ix.containCache, key, elemList{ids, set})
	return set
}

// MaxScore is the static upper bound on the Score of any single phrase
// predicate, used to build conservative score bounds for pruning.
const MaxScore = 1.0

// MaxPhraseScore returns the maximum Score any element with the given
// tag attains for phrase — the tight per-list bound the planner uses for
// query-scorebound and kor-scorebound. (The paper only requires the
// bounds to be conservative; the true per-index maximum is the tightest
// sound choice and is what makes pushed-down pruning effective.) Results
// are cached per (tag, phrase).
func (ix *Index) MaxPhraseScore(tag, phrase string) float64 {
	key := tagPhrase{tag, phrase}
	if v, ok := (*ix.maxScoreCache.Load())[key]; ok {
		return v
	}
	// Elements without an occurrence score 0.
	best := 0.0
	p := ix.Phrase(tag, phrase)
	for _, e := range ix.Containing(tag, phrase) {
		if s := p.Score(e); s > best {
			best = s
		}
	}
	cachePut(&ix.cacheMu, &ix.maxScoreCache, key, best)
	return best
}
