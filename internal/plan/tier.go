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
const maxTierPhrases = 6

// tier is the elements holding exactly the phrases in held (bit i), and their K's bound.
type tier struct {
	held  uint32
	bound float64
}

// tierSource feeds a plan's source tier by tier in descending bound, up to
// the first tier the K-final prune's k answers all beat. Under a class
// rule it visits a tier's members in the rule's class first and skips
// the rest once k answers beat them on K, then V (DESIGN.md §6.6).
type tierSource struct {
	p                *Plan
	lists            [][]xmldoc.NodeID // Containing(distTag, phrase i)
	class            []xmldoc.NodeID   // the class rule's class; nil: no class rule
	tiers            []tier
	stop             *algebra.TopKPruneOp // the K-final prune
	vks              *algebra.TopKPruneOp // the prune behind vor, which reads V
	ctx              context.Context      // the execution's, for the joins run inside the chain
	next             int
	members, matches []xmldoc.NodeID // reused across tiers
	rest             []xmldoc.NodeID // a split tier's members outside the class; grown on the first split
	restBound        float64
	restDue          bool // rest is still to visit, or skip
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
	ts := &tierSource{p: p, stop: stop, lists: make([][]xmldoc.NodeID, len(phrases)), tiers: make([]tier, 1<<len(phrases)),
		members: make([]xmldoc.NodeID, 0, n), matches: make([]xmldoc.NodeID, 0, n)}
	for i, ph := range phrases {
		ts.lists[i] = p.ix.Containing(p.distTag, ph)
	}
	if r := p.ranker.LeadVOR(); r >= 0 {
		v := p.prof.VORs[r]
		if v.Form == profile.FormEqConst && v.Tag == p.distTag && len(v.CommonEq) == 0 && !(v.Const.IsNum && math.IsNaN(v.Const.Num)) {
			ts.class, ts.vks = p.ix.WithValue(p.distTag, v.Attr, v.Const), vks
		}
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

// nextTier is the source's Next: the next part's candidates, or false
// once the prune's k answers beat the next tier's bound or a join fails
// (ctx is done). A split tier's rest is skipped when the K-final prune's
// k answers beat its bound or the prune behind vor holds k that beat it
// on K, then V; the tiers after it are still visited.
func (ts *tierSource) nextTier() ([]xmldoc.NodeID, bool) {
	for {
		var part []xmldoc.NodeID
		switch {
		case ts.restDue:
			ts.restDue = false
			if ts.stop.HoldsAbove(ts.restBound) || ts.vks.HoldsClassAbove(ts.restBound) {
				continue
			}
			part = ts.rest
		case ts.next < len(ts.tiers) && !ts.stop.HoldsAbove(ts.tiers[ts.next].bound):
			t := ts.tiers[ts.next]
			ts.next++
			part = ts.split(ts.tierMembers(t.held), t.bound)
		default:
			return nil, false
		}
		var err error
		if ts.matches, err = ts.p.join(ts.ctx, part, 0, ts.matches[:0]); err != nil {
			return nil, false
		}
		if len(ts.matches) > 0 {
			return ts.matches, true
		}
	}
}

// split returns the part of a tier to visit first: its members in the
// class, moved to the front of members, while the rest, moved to ts.rest,
// waits for the stop test — if some members but not all are in the class,
// and the prune behind vor holds enough answers that, with them, it
// reaches k, so the test can succeed. Otherwise, or without a class rule,
// it is the whole tier, and no rest is due.
func (ts *tierSource) split(members []xmldoc.NodeID, bound float64) []xmldoc.NodeID {
	if ts.class == nil {
		return members
	}
	in, at := 0, 0
	for _, e := range ts.class {
		if at = index.SeekGE(members, at, e); at < len(members) && members[at] == e {
			in++
		}
	}
	if in == 0 || in == len(members) || ts.vks.Held()+in < ts.p.K {
		return members
	}
	ts.rest = slices.Grow(ts.rest[:0], len(members)-in)
	top, c := members[:0], 0
	for _, e := range members {
		if c = index.SeekGE(ts.class, c, e); c < len(ts.class) && ts.class[c] == e {
			top = append(top, e)
		} else {
			ts.rest = append(ts.rest, e)
		}
	}
	ts.restBound, ts.restDue = bound, true
	return top
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
