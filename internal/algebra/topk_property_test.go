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
	return answerStream(r, n, withV, 20)
}

// answerStream draws S and K from levels values each and the mileage
// from 5/2 as many: few levels make a tie-heavy stream.
func answerStream(r *rand.Rand, n int, withV bool, levels int) []Answer {
	out := make([]Answer, n)
	for i := range out {
		out[i] = Answer{
			Node: xmldoc.NodeID(i),
			S:    float64(r.Intn(levels)) / 10,
			K:    float64(r.Intn(levels)) / 10,
		}
		if withV {
			mileage := fmt.Sprint(1000 * (1 + r.Intn(levels*5/2)))
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

// TestPropertyTopKPruneMatchesNaive: with zero bounds (no future gains)
// every component is final and the total order decides, so the
// operator's final list must be the naive top-k — the same answers in the
// same places — under every rank mode, on spread-out and on tie-heavy
// streams (two values of S and K: most answers tie the kth on every
// component and only NodeID separates them); and what it pruned must not
// be in it. ModeK, which no bound makes final, agrees on K.
func TestPropertyTopKPruneMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(10)
		withV := r.Intn(2) == 0
		answers := answerStream(r, n, withV, []int{20, 2}[iter%2])
		if iter%4 >= 2 {
			r.Shuffle(n, func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
		}
		prof := propProfile
		if !withV {
			prof = nil
		}
		ranker := &Ranker{Prof: prof}
		for _, mode := range []Mode{ModeS, ModeVS, ModeKVS, ModeVKS, ModeBlend, ModeK} {
			op := &TopKPruneOp{
				In: &sliceOp{answers: answers}, K: k, Mode: mode, Ranker: ranker,
			}
			kept := map[xmldoc.NodeID]bool{}
			for _, a := range drain(op) {
				kept[a.Node] = true
			}
			got := op.TopK()
			want := naiveTopK(answers, ranker, mode, k)
			if len(got) != len(want) {
				t.Fatalf("iter %d mode %v: %d vs %d answers", iter, mode, len(got), len(want))
			}
			for i := range want {
				if !kept[want[i].Node] {
					t.Fatalf("iter %d mode %v: top-%d member n%d (rank %d) was pruned", iter, mode, k, want[i].Node, i)
				}
				if mode == ModeK {
					if got[i].K != want[i].K {
						t.Fatalf("iter %d mode K rank %d: K %v vs %v", iter, i, got[i].K, want[i].K)
					}
				} else if got[i].Node != want[i].Node {
					t.Fatalf("iter %d mode %v rank %d: got n%d, want n%d", iter, mode, i, got[i].Node, want[i].Node)
				}
			}
		}
	}
}

// TestPropertyKOnlyPruneIgnoresTieOrder: a prune ahead of vor reads the
// list's kth K and nothing else, and that is the k-th largest K seen
// however K-tied answers are ordered — so permuting the answers among
// positions of equal K (each carrying its own S and V keys), at any
// kor-scorebound, changes neither which positions pass nor the list's K
// values, and the K,V,S prune that used to stand there, which orders its
// list by V and S too, passes exactly the same positions.
func TestPropertyKOnlyPruneIgnoresTieOrder(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	ranker := &Ranker{Prof: propProfile}
	passes := func(answers []Answer, mode Mode, k int, bound float64) (string, []float64) {
		op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: k, Mode: mode, Ranker: ranker, KorBound: bound}
		passed := make([]byte, len(answers))
		pos := map[xmldoc.NodeID]int{}
		for i, a := range answers {
			pos[a.Node], passed[i] = i, '.'
		}
		for _, a := range drain(op) {
			passed[pos[a.Node]] = 'x'
		}
		var ks []float64
		for _, a := range op.TopK() {
			ks = append(ks, a.K)
		}
		return string(passed), ks
	}
	for iter := 0; iter < 300; iter++ {
		n, k := 1+r.Intn(80), 1+r.Intn(8)
		answers := answerStream(r, n, true, 4)
		bound := float64(r.Intn(3)) / 10
		wantPass, wantKs := passes(answers, ModeK, k, bound)
		if bound > 0 {
			if got, _ := passes(answers, ModeKVS, k, bound); got != wantPass {
				t.Fatalf("iter %d bound %v: K,V,S prune passes\n%s, K-only prune\n%s", iter, bound, got, wantPass)
			}
		}
		shuffled := append([]Answer(nil), answers...)
		for i := n - 1; i > 0; i-- { // swap only within a K-tie class
			if j := r.Intn(i + 1); shuffled[i].K == shuffled[j].K {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
		}
		gotPass, gotKs := passes(shuffled, ModeK, k, bound)
		if gotPass != wantPass || fmt.Sprint(gotKs) != fmt.Sprint(wantKs) {
			t.Fatalf("iter %d bound %v: K-tied shuffle changed the prune\n%s %v\n%s %v", iter, bound, wantPass, wantKs, gotPass, gotKs)
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

// classProfile leads with a form-(1) rule (red cars first) and breaks
// its classes by mileage: the class rule of a tiered source.
var classProfile = profile.MustParseProfile(`
vor c priority 1: x.tag = car & y.tag = car & x.color = red & y.color != red => x < y
vor w priority 2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`)

// classAnswer is a car with the given K, class bit and random S and
// mileage, keyed through the real profile machinery.
func classAnswer(r *rand.Rand, node int, k float64, red bool) Answer {
	color, mileage := "blue", fmt.Sprint(1000*(1+r.Intn(4)))
	if red {
		color = "red"
	}
	lookup := func(attr string) (string, bool) {
		switch attr {
		case "color":
			return color, true
		case "mileage":
			return mileage, true
		}
		return "", false
	}
	keys := make([]profile.Key, len(classProfile.VORs))
	for i, v := range classProfile.VORs {
		keys[i] = v.KeyFor("car", lookup)
	}
	return Answer{Node: xmldoc.NodeID(node), K: k, S: float64(r.Intn(3)) / 10, VKeys: keys}
}

// TestPropertyClassStopIsSound is the V-bound mode of the stop test:
// whenever a K,V,S prune's HoldsClassAbove(b) says yes, every answer
// with K ≤ b outside the class — seen by the prune or never fed to it —
// ranks strictly below all k of its list. Bounds are drawn on and
// between the K levels, so the k-th often ties one.
func TestPropertyClassStopIsSound(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	ranker := NewRanker(classProfile)
	tied := 0
	for iter := 0; iter < 400; iter++ {
		n, k := 1+r.Intn(40), 1+r.Intn(6)
		answers := make([]Answer, n)
		for i := range answers {
			answers[i] = classAnswer(r, i, float64(r.Intn(4))/10, r.Intn(3) == 0)
		}
		op := &TopKPruneOp{In: &sliceOp{answers: answers}, K: k, Mode: ModeKVS, Ranker: ranker}
		drain(op)
		list := op.TopK()
		for range 8 {
			b := float64(r.Intn(8)) / 20
			if !op.HoldsClassAbove(b) {
				continue
			}
			if list[k-1].K == b {
				tied++
			}
			outside := make([]Answer, 0, n+4)
			for _, a := range answers {
				if a.K <= b && !classProfile.VORs[0].MatchesConst(&a.VKeys[0]) {
					outside = append(outside, a)
				}
			}
			for i := range 4 { // never fed: a skipped tier's members
				outside = append(outside, classAnswer(r, n+i, b-float64(r.Intn(2))/10, false))
			}
			for _, z := range outside {
				for _, m := range list {
					if ranker.Compare(&m, &z, ModeKVS) <= 0 {
						t.Fatalf("iter %d bound %v: n%d (K %v, outside the class) does not rank below n%d (K %v) of the top %d", iter, b, z.Node, z.K, m.Node, m.K, k)
					}
				}
			}
		}
	}
	if tied == 0 {
		t.Error("no stop at a k-th K equal to the bound: the class condition went untested")
	}
}
