package index

import (
	"math/rand"
	"testing"

	"repro/internal/text"
	"repro/internal/xmldoc"
)

func TestScorerContracts(t *testing.T) {
	scorers := []Scorer{TFIDFScorer{}, BM25Scorer{}, BM25Scorer{K1: 2}, BooleanScorer{}}
	r := rand.New(rand.NewSource(5))
	for _, sc := range scorers {
		if sc.Name() == "" {
			t.Errorf("%T: empty name", sc)
		}
		if sc.Score(0, 3, 10) != 0 {
			t.Errorf("%s: tf=0 must score 0", sc.Name())
		}
		for trial := 0; trial < 2000; trial++ {
			n := 1 + r.Intn(100)
			df := r.Intn(n + 1)
			tf := 1 + r.Intn(20)
			got := sc.Score(tf, df, n)
			if got <= 0 || got > 1+1e-12 {
				t.Fatalf("%s: Score(%d,%d,%d) = %v out of (0, 1]",
					sc.Name(), tf, df, n, got)
			}
		}
	}
}

func TestScorerMonotoneInTF(t *testing.T) {
	for _, sc := range []Scorer{TFIDFScorer{}, BM25Scorer{}} {
		last := 0.0
		for tf := 1; tf <= 20; tf++ {
			got := sc.Score(tf, 5, 50)
			if got < last {
				t.Errorf("%s: not monotone at tf=%d", sc.Name(), tf)
			}
			last = got
		}
	}
}

func TestScorerRareTermsScoreHigher(t *testing.T) {
	for _, sc := range []Scorer{TFIDFScorer{}, BM25Scorer{}} {
		rare := sc.Score(1, 1, 100)
		common := sc.Score(1, 90, 100)
		if !(rare > common) {
			t.Errorf("%s: rare %v <= common %v", sc.Name(), rare, common)
		}
	}
}

func TestSetScorerChangesRanking(t *testing.T) {
	doc, err := xmldoc.ParseString(dealerXML)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(doc, text.Pipeline{})
	cars := ix.Elements("car")

	// Default tf·idf: tf=2 (car 2) beats tf=1 (car 0).
	if !(ix.Score(cars[2], "good condition") > ix.Score(cars[0], "good condition")) {
		t.Fatalf("tfidf tf ordering broken")
	}
	if ix.ScorerName() != "tfidf" {
		t.Errorf("default scorer = %q", ix.ScorerName())
	}

	// Boolean: all matches equal.
	ix.SetScorer(BooleanScorer{})
	if ix.ScorerName() != "boolean" {
		t.Errorf("scorer = %q", ix.ScorerName())
	}
	if ix.Score(cars[2], "good condition") != ix.Score(cars[0], "good condition") {
		t.Errorf("boolean must score all matches equally")
	}
	if ix.Score(cars[1], "good condition") != 0 {
		t.Errorf("non-match must stay 0")
	}
	// Caches were reset: the per-list maximum reflects the new scorer.
	if got := ix.MaxPhraseScore("car", "good condition"); got != 1 {
		t.Errorf("boolean max = %v", got)
	}

	// BM25 behaves like a graded scorer again.
	ix.SetScorer(BM25Scorer{})
	if !(ix.Score(cars[2], "good condition") > ix.Score(cars[0], "good condition")) {
		t.Errorf("bm25 tf ordering broken")
	}
}

func TestScorerBoundsKeepPruningSound(t *testing.T) {
	// The per-list maximum must dominate every element's score under any
	// scorer — the invariant the pruning algorithms rely on.
	doc, _ := xmldoc.ParseString(dealerXML)
	for _, sc := range []Scorer{TFIDFScorer{}, BM25Scorer{}, BooleanScorer{}} {
		ix := Build(doc, text.Pipeline{})
		ix.SetScorer(sc)
		for _, phrase := range []string{"good condition", "best bid", "low mileage"} {
			bound := ix.MaxPhraseScore("car", phrase)
			for _, c := range ix.Elements("car") {
				if got := ix.Score(c, phrase); got > bound+1e-12 {
					t.Errorf("%s: score %v exceeds per-list bound %v", sc.Name(), got, bound)
				}
			}
		}
	}
}
