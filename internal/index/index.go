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
// Scoring has one implementation, PhraseList: a (tag, phrase) pair
// resolved once — occurrence list, df, n, scorer, a small tf → score
// table — and probed with a forward cursor (SeekGE) that exploits
// candidates arriving in document order and falls back to binary search
// when a probe is behind it. Plans resolve their lists at build time and
// run the keyword joins as merges; Index.Score, TF, Contains, DF and
// MaxPhraseScore are thin callers of the same code. Nothing is resolved
// at Build, and a resolved list is never cached across requests: only
// the occurrence, df and max-score caches below outlive a plan.
package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/text"
	"repro/internal/xmldoc"
)

// Index holds the per-tag element index and the positional inverted
// keyword index for one document. An Index is safe for concurrent
// readers: the derived caches are immutable copy-on-write snapshots
// behind atomic pointers, so the per-candidate scoring hot path never
// takes a lock. Cache misses copy the snapshot under a writer mutex;
// a plan build warms every (tag, phrase) pair its query needs, so
// steady-state execution is miss-free.
type Index struct {
	doc  *xmldoc.Document
	pipe text.Pipeline

	tags     map[string][]xmldoc.NodeID // element IDs in document order
	allElems []xmldoc.NodeID            // every element, document order

	positions map[string][]int32 // term -> sorted global token positions
	seqNode   []xmldoc.NodeID    // global token position -> its text node
	numTokens int

	guide *Dataguide // strong dataguide (path summary), built with the index

	scorer Scorer // nil means TFIDFScorer

	// cacheMu serializes cache writers only; readers atomically load the
	// current snapshot and never block. Snapshots are never mutated after
	// publication. Concurrent misses may compute the same entry twice —
	// results are deterministic, so duplicated work is the only cost.
	cacheMu       sync.Mutex
	phraseCache   atomic.Pointer[map[string][]int32]    // raw phrase -> sorted text-node starts
	maxScoreCache atomic.Pointer[map[tagPhrase]float64] // max element score per tag+phrase
	dfCache       atomic.Pointer[map[tagPhrase]int]     // document frequency per tag+phrase
}

// tagPhrase is a composite cache key (a struct key avoids allocating
// concatenated strings on the per-candidate scoring path).
type tagPhrase struct{ tag, phrase string }

// Build tokenizes every text node of doc under pipe and constructs the
// indexes. Building is a single pass over the document.
func Build(doc *xmldoc.Document, pipe text.Pipeline) *Index {
	ix := &Index{
		doc:       doc,
		pipe:      pipe,
		tags:      make(map[string][]xmldoc.NodeID),
		positions: make(map[string][]int32),
	}
	ix.resetCaches()
	gb := newGuideBuilder(doc.Len())
	doc.Walk(func(id xmldoc.NodeID) bool {
		n := doc.Node(id)
		switch n.Kind {
		case xmldoc.Element:
			ix.tags[n.Tag] = append(ix.tags[n.Tag], id)
			ix.allElems = append(ix.allElems, id)
			gb.visit(id, n.Tag, n.Level)
		case xmldoc.Text:
			for _, tok := range pipe.Tokenize(n.Text) {
				pos := int32(ix.numTokens)
				ix.positions[tok.Term] = append(ix.positions[tok.Term], pos)
				ix.seqNode = append(ix.seqNode, id)
				ix.numTokens++
			}
		}
		return true
	})
	ix.guide = gb.g
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
	return ix.tags[tag]
}

// TagCount returns the number of elements with the given tag ("*" counts
// all elements).
func (ix *Index) TagCount(tag string) int { return len(ix.Elements(tag)) }

// Tags returns all distinct element tags, sorted.
func (ix *Index) Tags() []string {
	out := make([]string, 0, len(ix.tags))
	for t := range ix.tags {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// NumTokens returns the total number of indexed token occurrences.
func (ix *Index) NumTokens() int { return ix.numTokens }

// resetCaches installs fresh empty cache snapshots (build time and
// scorer changes). Callers that can race with readers must hold cacheMu.
func (ix *Index) resetCaches() {
	phrase := make(map[string][]int32)
	maxScore := make(map[tagPhrase]float64)
	df := make(map[tagPhrase]int)
	ix.phraseCache.Store(&phrase)
	ix.maxScoreCache.Store(&maxScore)
	ix.dfCache.Store(&df)
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
	first := ix.positions[terms[0]]
	if first == nil {
		return []int32{}
	}
	if len(terms) == 1 {
		out := make([]int32, 0, len(first))
		for _, p := range first {
			out = append(out, int32(ix.seqNode[p]))
		}
		// first is sorted by position == document order of text nodes, so
		// out is sorted too (duplicates kept: multiple occurrences per node).
		return out
	}
	// Start from the rarest term to keep the candidate list short.
	rarest, rarestIdx := first, 0
	for i := 1; i < len(terms); i++ {
		p := ix.positions[terms[i]]
		if p == nil {
			return []int32{}
		}
		if len(p) < len(rarest) {
			rarest, rarestIdx = p, i
		}
	}
	var out []int32
	for _, p := range rarest {
		start := p - int32(rarestIdx)
		if start < 0 || int(start)+len(terms) > ix.numTokens {
			continue
		}
		node := ix.seqNode[start]
		match := true
		for j, t := range terms {
			pos := start + int32(j)
			if ix.seqNode[pos] != node || !ix.hasPosition(t, pos) {
				match = false
				break
			}
		}
		if match {
			out = append(out, int32(node))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ix *Index) hasPosition(term string, pos int32) bool {
	ps := ix.positions[term]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= pos })
	return i < len(ps) && ps[i] == pos
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
func (ix *Index) DF(tag, phrase string) int {
	p := ix.Phrase("*", phrase)
	df := 0
	for _, e := range ix.Elements(tag) {
		if p.TF(e) > 0 {
			df++
		}
	}
	return df
}

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

// cachedDF caches document frequency per (tag, phrase); computing DF
// scans the tag's element list, so repeated scoring of the same
// predicate must not redo it.
func (ix *Index) cachedDF(tag, phrase string) int {
	key := tagPhrase{tag, phrase}
	if v, ok := (*ix.dfCache.Load())[key]; ok {
		return v
	}
	df := ix.DF(tag, phrase)
	cachePut(&ix.cacheMu, &ix.dfCache, key, df)
	return df
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
	best := 0.0
	p := ix.Phrase(tag, phrase)
	for _, e := range ix.Elements(tag) {
		if s := p.Score(e); s > best {
			best = s
		}
	}
	cachePut(&ix.cacheMu, &ix.maxScoreCache, key, best)
	return best
}
