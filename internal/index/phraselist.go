package index

import (
	"sort"

	"repro/internal/xmldoc"
)

// SeekGE returns the smallest i with list[i] >= key in the ascending
// list (len(list) when there is none). hint is where the previous seek
// on the same list landed: candidates arrive in document order, so the
// next key is almost always at or just past it and a short gallop from
// the hint finds it. A key behind the hint — nested candidates, a
// pattern node with several bindings, the re-sorted stream of S-ILtpkP —
// falls back to the exact binary search over the whole list, so the
// result never depends on the probe order.
func SeekGE[T ~int32](list []T, hint int, key T) int {
	if hint > len(list) || (hint > 0 && list[hint-1] >= key) {
		return sort.Search(len(list), func(i int) bool { return list[i] >= key })
	}
	lo, step := hint, 1
	for lo < len(list) && list[lo] < key {
		hint = lo + 1
		lo += step
		step *= 2
	}
	if lo > len(list) {
		lo = len(list)
	}
	// The answer lies in [hint, lo]: list[hint-1] < key, and list[lo] >= key
	// when lo is in range.
	return hint + sort.Search(lo-hint, func(i int) bool { return list[hint+i] >= key })
}

// scoreTableSize bounds the tf → score table of a resolved phrase list:
// tf = 1..scoreTableSize-1 read the table, larger counts call the
// scorer. Subtree phrase counts of candidate-sized elements are almost
// always below it.
const scoreTableSize = 8

// tagScores is what scoring a phrase needs to know about one tag: the
// scorer's df and n arguments and the scores already computed for them.
type tagScores struct {
	df, n int
	table [scoreTableSize]float64 // 0 = not computed yet (scores of tf > 0 are positive)
}

// PhraseList is one (tag, phrase) pair resolved against the index: the
// phrase's occurrence list, the tag's document frequency and size, the
// scorer, and a forward cursor into the occurrences. It is the one
// implementation of phrase scoring — Index.Score, TF, Contains and
// MaxPhraseScore are thin callers — and the merge-join side of the
// ftjoin and kor operators, which resolve their lists once per plan
// and probe them with document-ordered candidates.
//
// A list resolved for the wildcard tag "*" scores every element under
// that element's own tag. A PhraseList is not safe for concurrent use
// (the cursor and the score tables move); each operator chain resolves
// its own.
type PhraseList struct {
	ix     *Index
	phrase string
	occ    []int32 // sorted Start positions of the text nodes holding each occurrence
	cur    int     // where the last probe's lower bound landed
	post   []int32 // the document's region ends (xmldoc.Positions.Post)
	sc     Scorer

	tag   string                // "*": score by each element's own tag
	fixed tagScores             // the scores of tag
	other map[string]*tagScores // "*" lists: per element tag, filled on demand
}

// Phrase resolves (tag, phrase). The occurrence list and the document
// frequency come from the index's copy-on-write caches, so resolving is
// a few map reads once a pair has been seen.
func (ix *Index) Phrase(tag, phrase string) PhraseList {
	p := PhraseList{
		ix: ix, phrase: phrase, tag: tag, sc: ix.scorer,
		occ: ix.phraseOccurrences(phrase), post: ix.doc.Pos().Post,
	}
	if p.sc == nil {
		p.sc = TFIDFScorer{}
	}
	if tag != "*" {
		p.fixed = tagScores{df: ix.DF(tag, phrase), n: len(ix.tags.list(tag))}
	}
	return p
}

// scoresOf returns the score table of a "*" list for one element tag.
func (p *PhraseList) scoresOf(tag string) *tagScores {
	ts, ok := p.other[tag]
	if !ok {
		if p.other == nil {
			p.other = make(map[string]*tagScores)
		}
		ts = &tagScores{df: p.ix.DF(tag, p.phrase), n: len(p.ix.tags.list(tag))}
		p.other[tag] = ts
	}
	return ts
}

// TF returns the number of occurrences of the phrase within elem's
// subtree: the occurrences whose text node lies in elem's region
// [elem, Post[elem]] (a node's ID is its preorder position).
func (p *PhraseList) TF(elem xmldoc.NodeID) int {
	if len(p.occ) == 0 {
		return 0
	}
	end := p.post[elem]
	lo := SeekGE(p.occ, p.cur, int32(elem))
	p.cur = lo
	// Counts are small, so walk them; a subtree holding many occurrences
	// (a probe of the root) finishes with a binary search.
	hi := lo
	for hi < len(p.occ) && p.occ[hi] <= end {
		hi++
		if hi-lo == scoreTableSize {
			rest := p.occ[hi:]
			hi += sort.Search(len(rest), func(i int) bool { return rest[i] > end })
			break
		}
	}
	return hi - lo
}

// Score returns the relevance contribution of the phrase to elem,
// normalized into [0, Bound]. elem must carry the list's tag unless the
// list was resolved for "*".
func (p *PhraseList) Score(elem xmldoc.NodeID) float64 {
	tf := p.TF(elem)
	if tf == 0 {
		return 0
	}
	ts := &p.fixed
	if p.tag == "*" {
		ts = p.scoresOf(p.ix.doc.Tag(elem))
	}
	if tf >= scoreTableSize {
		return p.sc.Score(tf, ts.df, ts.n)
	}
	if ts.table[tf] == 0 {
		ts.table[tf] = p.sc.Score(tf, ts.df, ts.n)
	}
	return ts.table[tf]
}
