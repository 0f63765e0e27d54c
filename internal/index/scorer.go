package index

import "math"

// Scorer turns raw phrase statistics into the query score contribution S
// of one predicate. The paper's opening argument — "there is no one
// scoring function that fits all" — is why the base relevance function is
// pluggable; the personalization machinery only requires scores to be
// non-negative, bounded, and additive across predicates.
//
// Inputs: tf = occurrences of the phrase in the element's subtree,
// df = number of same-tag elements containing the phrase, n = number of
// same-tag elements.
type Scorer interface {
	// Score must return 0 when tf == 0 and a value in (0, Bound] otherwise.
	Score(tf, df, n int) float64
	// Bound is the static upper bound of Score, used when no per-list
	// maximum is available.
	Bound() float64
	// Name identifies the scorer in plan diagnostics.
	Name() string
}

// TFIDFScorer is the default: score = tf/(tf+1) · idf, with
// idf = log(1 + n/(1+df)) / log(2 + n), bounded by 1.
type TFIDFScorer struct{}

func (TFIDFScorer) Score(tf, df, n int) float64 {
	if tf == 0 {
		return 0
	}
	if n == 0 {
		n = 1
	}
	idf := math.Log(1+float64(n)/float64(1+df)) / math.Log(float64(n)+2)
	return float64(tf) / float64(tf+1) * idf
}

func (TFIDFScorer) Bound() float64 { return 1 }
func (TFIDFScorer) Name() string   { return "tfidf" }

// BM25Scorer is a length-free BM25 variant:
// score = idf · tf·(k1+1)/(tf+k1), normalized into (0, 1].
type BM25Scorer struct {
	// K1 is BM25's term-frequency saturation parameter (default 1.2).
	K1 float64
}

func (s BM25Scorer) k1() float64 {
	if s.K1 <= 0 {
		return 1.2
	}
	return s.K1
}

func (s BM25Scorer) Score(tf, df, n int) float64 {
	if tf == 0 {
		return 0
	}
	if n == 0 {
		n = 1
	}
	k1 := s.k1()
	// Standard BM25 idf with +1 flooring so it stays positive, scaled
	// into [0, 1] by its maximum log(n+1).
	idf := math.Log(1+(float64(n)-float64(df)+0.5)/(float64(df)+0.5)) / math.Log(float64(n)+1)
	if idf <= 0 {
		idf = 1 / math.Log(float64(n)+2)
	}
	if idf > 1 { // df = 0 can push the normalized idf just past 1
		idf = 1
	}
	sat := float64(tf) * (k1 + 1) / (float64(tf) + k1)
	return idf * sat / (k1 + 1)
}

func (BM25Scorer) Bound() float64 { return 1 }
func (s BM25Scorer) Name() string { return "bm25" }

// BooleanScorer scores 1 for any match — pure boolean retrieval.
type BooleanScorer struct{}

func (BooleanScorer) Score(tf, df, n int) float64 {
	if tf == 0 {
		return 0
	}
	return 1
}

func (BooleanScorer) Bound() float64 { return 1 }
func (BooleanScorer) Name() string   { return "boolean" }

// SetScorer replaces the index's relevance function. It must be called
// before the index serves queries (scores and bounds are cached); it
// clears the caches.
func (ix *Index) SetScorer(s Scorer) {
	ix.cacheMu.Lock()
	defer ix.cacheMu.Unlock()
	ix.scorer = s
	ix.fp.Store(nil)
	ix.resetCaches()
}

// ScorerName reports the active scorer.
func (ix *Index) ScorerName() string {
	if ix.scorer == nil {
		return TFIDFScorer{}.Name()
	}
	return ix.scorer.Name()
}
