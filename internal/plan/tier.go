package plan

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/xmldoc"
)

// maxTierPhrases caps the phrases a tiered source splits candidates by:
// more phrases, more near-empty tiers merged before k answers settle. On
// the 10 MB Fig. 7 document (Fig. 5 query, k = 10, 2-core Xeon) tiered
// plans read 1.8 / 4.4 / 13 ms at 6 / 7 / 8 phrases, untiered 2.6 / 3.5 / 3.5.
const maxTierPhrases = 6

// tier is the elements holding exactly the phrases in held (bit i), and their K's bound.
type tier struct {
	held  uint32
	bound float64
}

// tierSource feeds a plan's source tier by tier in descending bound, up to
// the first tier the K-final prune's k answers all beat (DESIGN.md §6.6).
type tierSource struct {
	p                *Plan
	lists            [][]xmldoc.NodeID // Containing(distTag, phrase i)
	tiers            []tier
	stop             *algebra.TopKPruneOp // the K-final prune
	ctx              context.Context      // the execution's, for the joins run inside the chain
	next             int
	members, matches []xmldoc.NodeID // reused across tiers
}

// newTierSource returns a plan's tiered source, or nil outside its scope:
// Push ranking K,V,S, a fixed-tag join root as distinguished node, 1 to
// maxTierPhrases phrases of scorable KORs weighing finite and ≥ 0.
func newTierSource(p *Plan, stop *algebra.TopKPruneOp) *tierSource {
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
	ts := &tierSource{p: p, stop: stop, lists: make([][]xmldoc.NodeID, len(phrases)), tiers: make([]tier, 1<<len(phrases)),
		members: make([]xmldoc.NodeID, 0, n), matches: make([]xmldoc.NodeID, 0, n)}
	for i, ph := range phrases {
		ts.lists[i] = p.ix.Containing(p.distTag, ph)
	}
	// Summed in KOROp's association order over scores at most the maxima,
	// a bound is by monotone rounding never below a member's K.
	for held := range ts.tiers {
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
		ts.tiers[held] = tier{uint32(held), k}
	}
	slices.SortStableFunc(ts.tiers, func(a, b tier) int { return cmp.Compare(b.bound, a.bound) })
	return ts
}

// nextTier is the source's Next: the next tier's candidates, or false once
// the prune's k answers beat its bound or a join fails (ctx is done).
func (ts *tierSource) nextTier() ([]xmldoc.NodeID, bool) {
	for ; ts.next < len(ts.tiers) && !ts.stop.HoldsAbove(ts.tiers[ts.next].bound); ts.next++ {
		ts.members = ts.tierMembers(ts.tiers[ts.next].held)
		var err error
		if ts.matches, err = ts.p.join(ts.ctx, ts.members, 0, ts.matches[:0]); err != nil {
			return nil, false
		}
		if len(ts.matches) > 0 {
			ts.next++
			return ts.matches, true
		}
	}
	return nil, false
}

// tierMembers gallops the shortest list the members are in (the stream,
// for held 0) against every phrase list, checking held, and the stream.
func (ts *tierSource) tierMembers(held uint32) []xmldoc.NodeID {
	stream := ts.p.eval.Stream()
	lead := stream
	for i, l := range ts.lists {
		if held&(1<<i) != 0 && len(l) < len(lead) {
			lead = l
		}
	}
	var at [maxTierPhrases + 1]int // cursors: the lists, then the stream
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
