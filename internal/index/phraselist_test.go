package index

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/text"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// oracleScore is Index.Score as it stood before phrase lists: a cold
// probe per call — the phrase's occurrences, two full binary searches
// for the subtree count, the element's own tag for df and n.
func oracleScore(ix *Index, elem xmldoc.NodeID, phrase string) float64 {
	occ := ix.phraseOccurrences(phrase)
	end := ix.doc.Pos().Post[elem]
	lo := sort.Search(len(occ), func(i int) bool { return occ[i] >= int32(elem) })
	hi := sort.Search(len(occ), func(i int) bool { return occ[i] > end })
	tf := hi - lo
	if tf == 0 {
		return 0
	}
	tag := ix.doc.Tag(elem)
	sc := ix.scorer
	if sc == nil {
		sc = TFIDFScorer{}
	}
	return sc.Score(tf, ix.DF(tag, phrase), len(ix.tags.list(tag)))
}

func TestSeekGE(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		list := make([]int32, r.Intn(40))
		v := int32(0)
		for i := range list {
			v += int32(r.Intn(4)) // repeats allowed: occurrence lists hold them
			list[i] = v
		}
		for probe := 0; probe < 60; probe++ {
			key := int32(r.Intn(int(v)+3)) - 1
			hint := r.Intn(len(list) + 2) // any hint, even past the end, must not matter
			want := sort.Search(len(list), func(i int) bool { return list[i] >= key })
			if got := SeekGE(list, hint, key); got != want {
				t.Fatalf("SeekGE(%v, hint %d, key %d) = %d, want %d", list, hint, key, got, want)
			}
		}
	}
}

// TestPhraseListMatchesOracle: a resolved list scores every (element,
// phrase) pair of a generated document exactly as the per-call oracle
// does — in document order (the cursor's forward path), in reverse and
// shuffled (its fallback), under a fixed tag and under "*" (each
// element's own tag), for a phrase that never occurs and for subtree
// counts above the score table.
func TestPhraseListMatchesOracle(t *testing.T) {
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[0])
	ix := Build(doc, text.Pipeline{})
	phrases := []string{"Yes", "male", "United States", "College", "no such phrase", "the"}
	orders := map[string]func([]xmldoc.NodeID){
		"document order": func([]xmldoc.NodeID) {},
		"reversed": func(e []xmldoc.NodeID) {
			for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
				e[i], e[j] = e[j], e[i]
			}
		},
		"shuffled": func(e []xmldoc.NodeID) {
			rand.New(rand.NewSource(5)).Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] })
		},
	}
	bigTF := false
	for _, tag := range []string{"person", "*", "site", "text"} {
		for _, phrase := range phrases {
			for name, reorder := range orders {
				elems := append([]xmldoc.NodeID{}, ix.Elements(tag)...)
				reorder(elems)
				p := ix.Phrase(tag, phrase)
				for _, e := range elems {
					got, want := p.Score(e), oracleScore(ix, e, phrase)
					if got != want {
						t.Fatalf("tag %s phrase %q %s: Score(%d) = %v, oracle %v", tag, phrase, name, e, got, want)
					}
					if p.TF(e) >= scoreTableSize {
						bigTF = true
					}
					if ix.Score(e, phrase) != want {
						t.Fatalf("Index.Score(%d, %q) = %v, oracle %v", e, phrase, ix.Score(e, phrase), want)
					}
				}
			}
		}
	}
	if !bigTF {
		t.Error("fixture never probed a subtree count above the score table")
	}
}
