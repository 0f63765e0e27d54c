package plan

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/xmldoc"
)

// maxTierPhrases caps the phrases a tiered source splits candidates by:
// more phrases, more near-empty tiers merged before k answers settle. On
// the 10 MB Fig. 7 document (Fig. 5 query, k = 10, 2-core Xeon) tiered
// plans read 1.8 / 4.4 / 13 ms at 6 / 7 / 8 phrases, untiered 2.6 / 3.5 / 3.5.
// The class rule's list is not counted, though it doubles the tiers: led
// by age = 33, tiered plans read 2.1 / 5.4 ms at 6 / 7 phrases (128 / 256
// tiers), untiered 2.7 / 2.5.
const maxTierPhrases = 6

// tier is the elements in exactly the lists in held (bit i: list i),
// and their K's bound.
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
	lists            [][]xmldoc.NodeID // Containing(distTag, phrase i), then the class rule's class
	class            uint32            // the class list's held bit; 0: no class rule
	tiers            []tier
	stop             *algebra.TopKPruneOp // the K-final prune
	vks              *algebra.TopKPruneOp // the prune behind vor, which reads V
	ctx              context.Context      // the execution's, for the joins run inside the chain
	next             int
	members, matches []xmldoc.NodeID // reused across tiers
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
		p.q.Dist != 0 || p.distTag == "*" || len(p.eval.Stream()) == 0 {
		return nil
	}
	var phrases []string
	for _, kor := range p.kors {
		if !algebra.KORScores(kor, p.distTag) {
			continue
		}
		if w := kor.EffectiveWeight(); !(w >= 0 && w <= math.MaxFloat64) {
			return nil
		}
		for _, ph := range kor.Phrases {
			if !slices.Contains(phrases, ph) {
				phrases = append(phrases, ph)
			}
		}
	}
	if len(phrases) == 0 || len(phrases) > maxTierPhrases {
		return nil
	}
	n := len(p.eval.Stream()) // members ⊆ stream and matches ⊆ members: no regrowth
	ts := &tierSource{p: p, stop: stop, lists: make([][]xmldoc.NodeID, len(phrases), len(phrases)+1),
		members: make([]xmldoc.NodeID, 0, n), matches: make([]xmldoc.NodeID, 0, n)}
	for i, ph := range phrases {
		ts.lists[i] = p.ix.Containing(p.distTag, ph)
	}
	if r := p.ranker.LeadVOR(); r >= 0 {
		v := p.prof.VORs[r]
		if v.Form == profile.FormEqConst && v.Tag == p.distTag && len(v.CommonEq) == 0 && !(v.Const.IsNum && math.IsNaN(v.Const.Num)) {
			ts.class, ts.vks = 1<<len(ts.lists), vks
			ts.lists = append(ts.lists, p.ix.WithValue(p.distTag, v.Attr, v.Const))
		}
	}
	// Summed in KOROp's association order over scores at most the maxima,
	// a bound is by monotone rounding never below a member's K. The class
	// bit adds nothing to it.
	ts.tiers = make([]tier, 0, 1<<len(ts.lists))
	for held := range 1 << len(phrases) {
		k := 0.0
		for _, kor := range p.kors {
			if !algebra.KORScores(kor, p.distTag) {
				continue
			}
			w, total := kor.EffectiveWeight(), 0.0
			for _, ph := range kor.Phrases {
				if held&(1<<slices.Index(phrases, ph)) != 0 {
					total += w * p.ix.MaxPhraseScore(kor.Tag, ph)
				}
			}
			k += total
		}
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
// once the K-final prune's k answers beat the next tier's bound or a
// join fails (ctx is done). A tier outside the class is skipped, before
// its members are merged, once the prune behind vor holds k answers that
// beat it on K, then V; an empty tier is skipped without a join.
func (ts *tierSource) nextTier() ([]xmldoc.NodeID, bool) {
	for ts.next < len(ts.tiers) {
		t := ts.tiers[ts.next]
		if ts.stop.HoldsAbove(t.bound) {
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

// tierMembers gallops the shortest list the members are in (the stream,
// for held 0) against every list, checking held, and the stream.
func (ts *tierSource) tierMembers(held uint32) []xmldoc.NodeID {
	stream := ts.p.eval.Stream()
	lead := stream
	for i, l := range ts.lists {
		if held&(1<<i) != 0 && len(l) < len(lead) {
			lead = l
		}
	}
	var at [maxTierPhrases + 2]int // cursors: the lists, then the stream
	has := func(list []xmldoc.NodeID, c *int, e xmldoc.NodeID) bool {
		*c = index.SeekGE(list, *c, e)
		return *c < len(list) && list[*c] == e
	}
	out := ts.members[:0]
next:
	for _, e := range lead {
		for i, l := range ts.lists {
			if has(l, &at[i], e) != (held&(1<<i) != 0) {
				continue next
			}
		}
		if has(stream, &at[len(ts.lists)], e) {
			out = append(out, e)
		}
	}
	return out
}
