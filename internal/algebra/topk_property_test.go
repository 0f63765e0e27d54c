package algebra

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/profile"
	"repro/internal/xmldoc"
)

// propProfile has one VOR (lower mileage preferred) so V participates in
// the rank orders under test.
var propProfile = profile.MustParseProfile(`
vor w: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`)

// randomAnswerStream fabricates n answers with random S, K and mileage
// (VOR keys computed through the real profile machinery).
func randomAnswerStream(r *rand.Rand, n int, withV bool) []Answer {
	out := make([]Answer, n)
	for i := range out {
		out[i] = Answer{
			Node: xmldoc.NodeID(i),
			S:    float64(r.Intn(20)) / 10,
			K:    float64(r.Intn(20)) / 10,
		}
		if withV {
			mileage := fmt.Sprint(1000 * (1 + r.Intn(50)))
			lookup := func(attr string) (string, bool) {
				if attr == "mileage" {
					return mileage, true
				}
				return "", false
			}
			out[i].VKeys = []profile.Key{propProfile.VORs[0].KeyFor("car", lookup)}
		}
	}
	return out
}

// naiveTopK is the reference: full sort under the ranker, cut at k.
func naiveTopK(answers []Answer, ranker *Ranker, mode Mode, k int) []Answer {
	buf := append([]Answer(nil), answers...)
	sort.SliceStable(buf, func(i, j int) bool {
		c := ranker.Compare(&buf[i], &buf[j], mode)
		if c != 0 {
			return c > 0
		}
		return buf[i].Node < buf[j].Node
	})
	if len(buf) > k {
		buf = buf[:k]
	}
	return buf
}

// TestPropertyTopKPruneMatchesNaive: with zero bounds (no future gains),
// the operator's final list must equal the naive top-k under every mode.
func TestPropertyTopKPruneMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(10)
		withV := r.Intn(2) == 0
		answers := randomAnswerStream(r, n, withV)
		prof := propProfile
		if !withV {
			prof = nil
		}
		ranker := &Ranker{Prof: prof}
		for _, mode := range []Mode{ModeS, ModeVS, ModeKVS, ModeVKS, ModeBlend} {
			op := &TopKPruneOp{
				In: &sliceOp{answers: answers}, K: k, Mode: mode, Ranker: ranker,
			}
			drain(op)
			got := op.TopK()
			want := naiveTopK(answers, ranker, mode, k)
			if len(got) != len(want) {
				t.Fatalf("iter %d mode %v: %d vs %d answers", iter, mode, len(got), len(want))
			}
			for i := range want {
				// Rank values must agree pairwise (node identity can
				// differ only between exact ranking ties).
				if got[i].S != want[i].S && mode == ModeS {
					t.Fatalf("iter %d mode %v rank %d: S %v vs %v", iter, mode, i, got[i].S, want[i].S)
				}
				cmp := ranker.Compare(&got[i], &want[i], mode)
				if cmp != 0 {
					t.Fatalf("iter %d mode %v rank %d: got n%d, want n%d (cmp %d)",
						iter, mode, i, got[i].Node, want[i].Node, cmp)
				}
			}
		}
	}
}

// TestPropertyBoundsNeverLoseTopK: with positive bounds the operator may
// keep extra answers in the flow, but everything in the true top-k must
// survive (never be pruned) — the soundness requirement of Section 6.3.
func TestPropertyBoundsNeverLoseTopK(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(8)
		answers := randomAnswerStream(r, n, true)
		ranker := &Ranker{Prof: propProfile}
		mode := []Mode{ModeKVS, ModeVKS, ModeBlend}[r.Intn(3)]
		op := &TopKPruneOp{
			In: &sliceOp{answers: answers}, K: k, Mode: mode, Ranker: ranker,
			SBound:   float64(r.Intn(3)) / 2,
			KorBound: float64(r.Intn(3)) / 2,
		}
		survived := map[xmldoc.NodeID]bool{}
		for _, a := range drain(op) {
			survived[a.Node] = true
		}
		want := naiveTopK(answers, ranker, mode, k)
		for i, w := range want {
			if !survived[w.Node] {
				// The pruned answer might tie exactly with a survivor;
				// only a strict loss is a bug.
				strict := true
				for node := range survived {
					for _, a := range answers {
						if a.Node == node && ranker.Compare(&a, &w, mode) == 0 {
							strict = false
						}
					}
				}
				if strict {
					t.Fatalf("iter %d mode %v: true top-%d member n%d (rank %d) was pruned",
						iter, mode, k, w.Node, i)
				}
			}
		}
	}
}

// TestPropertyInsertKeepsListSorted: the operator's internal list must
// stay sorted by the mode after every insertion pattern.
func TestPropertyInsertKeepsListSorted(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for iter := 0; iter < 300; iter++ {
		answers := randomAnswerStream(r, 1+r.Intn(40), false)
		ranker := &Ranker{}
		mode := []Mode{ModeS, ModeKVS, ModeBlend}[r.Intn(3)]
		op := &TopKPruneOp{
			In: &sliceOp{answers: answers}, K: 1 + r.Intn(6), Mode: mode, Ranker: ranker,
		}
		drain(op)
		list := op.TopK()
		for i := 1; i < len(list); i++ {
			if ranker.Compare(&list[i], &list[i-1], mode) > 0 {
				t.Fatalf("iter %d mode %v: list out of order at %d: %+v", iter, mode, i, list)
			}
		}
	}
}
