package plan

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/xmldoc"
)

// maxTierPhrases caps the phrases a tiered source splits candidates by;
// each doubles the tiers. On the 10 MB Fig. 7 document (Fig. 5 query,
// k = 10, 2-core Xeon) tiered plans read 0.24 / 0.61 / 1.8 ms at 6 / 7 /
// 8 phrases, untiered 2.6 / 3.2 / 4.0; led by age = 33 (its class list
// not counted) 0.47 / 1.3 / 4.1 against 3.3 / 3.6 / 4.3. The cap was set
// when member merges galloped and lost from 7 phrases.
const maxTierPhrases = 6

// tier is the elements in exactly the sets in held (bit i: set i) and their K's bound.
type tier struct {
	held  uint32
	bound float64
}

// tierSource feeds a plan's source tier by tier in descending bound,
// class tiers first at equal bound, up to the first tier the K-final
// prune's k answers all beat. Under a class rule its last list is the
// rule's class, and a tier outside it is skipped once k answers beat it
// on K, then V (DESIGN.md §6.6).
type tierSource struct {
	p                *Plan
	sets             [][]uint64      // rank sets over elems: Containing(distTag, phrase i), then the class rule's class
	elems, stream    []xmldoc.NodeID // Elements(distTag) and the join's stream, a subset of it
	class            uint32          // the class list's held bit; 0: no class rule
	tiers            []tier
	stop             *algebra.TopKPruneOp // the K-final prune
	vks              *algebra.TopKPruneOp // the prune behind vor, which reads V
	ctx              context.Context      // the execution's, for the joins run inside the chain
	next             int
	members, matches []xmldoc.NodeID // one buffer's halves, at least a batch, grown to the largest tier yet
}

// newTierSource returns a plan's tiered source, or nil outside its scope:
// Push ranking K,V,S, a fixed-tag join root as distinguished node, 1 to
// maxTierPhrases phrases of scorable KORs weighing finite and ≥ 0. The
// class rule is the lead VOR when it is of form (1), about the
// distinguished tag, without common equalities and with a constant other
// than NaN: then LinearCompare sees two classes, and at equal K every
// member of the first outranks every other answer.
func newTierSource(p *Plan, stop, vks *algebra.TopKPruneOp) *tierSource {
	if p.eval == nil || p.Strategy != Push || p.Mode != algebra.ModeKVS ||
		p.q.Dist != 0 || p.distTag == "*" || len(p.eval.Stream()) == 0 ||
		math.IsInf(kBound(p.ix, p.kors, p.distTag, nil), 1) {
		return nil
	}
	var phrases []string
	for _, kor := range p.kors {
		for _, ph := range kor.Phrases {
			if algebra.KORScores(kor, p.distTag) && !slices.Contains(phrases, ph) {
				phrases = append(phrases, ph)
			}
		}
	}
	if len(phrases) == 0 || len(phrases) > maxTierPhrases {
		return nil
	}
	ts := &tierSource{p: p, stop: stop, sets: make([][]uint64, len(phrases), len(phrases)+1),
		elems: p.ix.Elements(p.distTag), stream: p.eval.Stream()}
	for i, ph := range phrases {
		ts.sets[i] = p.ix.ContainingSet(p.distTag, ph)
	}
	if r := p.ranker.LeadVOR(); r >= 0 {
		v := p.prof.VORs[r]
		if v.Form == profile.FormEqConst && v.Tag == p.distTag && len(v.CommonEq) == 0 && !(v.Const.IsNum && math.IsNaN(v.Const.Num)) {
			ts.class, ts.vks = 1<<len(ts.sets), vks
			ts.sets = append(ts.sets, p.ix.WithValueSet(p.distTag, v.Attr, v.Const))
		}
	}
	// A tier's bound is kBound over its phrases; the class bit adds
	// nothing to it.
	ts.tiers = make([]tier, 0, 1<<len(ts.sets))
	for held := range 1 << len(phrases) {
		k := kBound(p.ix, p.kors, p.distTag, func(ph string) bool { return held&(1<<slices.Index(phrases, ph)) != 0 })
		ts.tiers = append(ts.tiers, tier{uint32(held), k})
		if ts.class != 0 {
			ts.tiers = append(ts.tiers, tier{uint32(held) | ts.class, k})
		}
	}
	slices.SortStableFunc(ts.tiers, func(a, b tier) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return cmp.Compare(b.held&ts.class, a.held&ts.class)
	})
	return ts
}

// nextTier is the source's Next: the next tier's candidates, or false
// once the K-final prune's k answers, or a fan-out's shared k-th, beat
// the next tier's bound, or a join fails (ctx is done). A tier outside
// the class is skipped, before its members are merged, once the prune
// behind vor holds k answers that beat it on K, then V; an empty tier is
// skipped without a join.
func (ts *tierSource) nextTier() ([]xmldoc.NodeID, bool) {
	for ts.next < len(ts.tiers) {
		t := ts.tiers[ts.next]
		if ts.stop.HoldsAbove(t.bound) || ts.p.opts.Shared.Threshold() > t.bound {
			break
		}
		ts.next++
		if ts.class != 0 && t.held&ts.class == 0 && ts.vks.HoldsClassAbove(t.bound) {
			continue
		}
		members := ts.tierMembers(t.held)
		if len(members) == 0 {
			continue
		}
		var err error
		if ts.matches, err = ts.p.join(ts.ctx, members, 0, ts.matches[:0]); err != nil {
			break
		}
		if len(ts.matches) > 0 {
			return ts.matches, true
		}
	}
	return nil, false
}

// tierMembers returns the stream's elements in exactly the sets in held,
// word by word: the AND of the held sets and the AND-NOT of the others.
func (ts *tierSource) tierMembers(held uint32) []xmldoc.NodeID {
	word := func(w int) uint64 {
		x := ^uint64(0) >> max(0, 64*(w+1)-len(ts.elems)) // the tail word masked to the tag list
		for i, s := range ts.sets {
			x &^= s[w] ^ -uint64(held>>i&1) // held: x &= s[w]; not held: x &^= s[w]
		}
		return x
	}
	words, n := (len(ts.elems)+63)/64, 0 // counted, then decoded and checked against the stream
	for w := range words {
		n += bits.OnesCount64(word(w))
	}
	if c := max(n, batchCap); cap(ts.members) < n { // matches ⊆ members: the join never regrows them
		buf := make([]xmldoc.NodeID, 2*c)
		ts.members, ts.matches = buf[:0:c], buf[c:c]
	}
	out, at := ts.members[:0], 0
	for w := range words {
		for x := word(w); x != 0; x &= x - 1 {
			e := ts.elems[w*64+bits.TrailingZeros64(x)]
			if at = index.SeekGE(ts.stream, at, e); at < len(ts.stream) && ts.stream[at] == e {
				out = append(out, e)
			}
		}
	}
	return out
}
