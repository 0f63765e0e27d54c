package plan

// The chain compiler as it stood before the Push plan's source became
// tiered, copied verbatim (only the receiver became a parameter): every
// candidate the access path produces goes through it, and a rule about
// another tag than the distinguished node's still adds its maximum to
// every kor-scorebound. oracleExecute runs it sequentially over the
// whole candidate list; it is the reference TestScoreFreeMatchesOracle
// and TestTieredMatchesOracle hold the served chains to.
//
// oracleTierMembers is the tier source's member merge as it stood before
// the tier lists became rank sets, copied verbatim (the receiver's lists,
// stream and buffer became parameters): a galloping merge led by the
// shortest list the members are in. TestTierMembersMatchOracle and
// FuzzTierMembers hold the set algebra to it.

import (
	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// oracleExecute evaluates (q, prof) at k on the given access path the
// old way: the whole candidate list — every tag-list element, or the
// whole join — through oracleBuildChain, drained at batchCap, and with
// the final sort compiled even for a plan that ranks nothing, so the
// score-free shortcut is held to a sort-then-prune chain.
func oracleExecute(ix *index.Index, q *tpq.Query, prof *profile.Profile, k int, strat Strategy, access AccessPath) ([]algebra.Answer, error) {
	p, err := BuildWith(ix, q, prof, k, Options{Strategy: strat, AccessPath: access, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	ids := ix.Elements(p.distTag)
	if p.eval != nil {
		if ids, _, err = p.eval.Distinguished(nil); err != nil {
			return nil, err
		}
	}
	p.scoreFree = false
	src := &algebra.ListScanOp{Name: p.src.Name, IDs: ids}
	ops, final := oracleBuildChain(p, src, algebra.NewMatcher(ix, q), nil, algebra.NewCancelCheck(nil))
	algebra.Run(ops[len(ops)-1], batchCap)
	return final.TopK(), nil
}

func oracleBuildChain(p *Plan, src *algebra.ListScanOp, m *algebra.Matcher, shared *algebra.SharedBound, cancel *algebra.CancelCheck) ([]algebra.Operator, *algebra.TopKPruneOp) {
	ix, prof, k := p.ix, p.prof, p.K
	strat, mode, ranker := p.Strategy, p.Mode, p.ranker
	src.Cancel = cancel
	ftUnits := m.FTUnits()
	var kors []*profile.KOR
	if prof != nil {
		kors = prof.SortKORsByPriority()
	}

	maxOps := maxChainOps(len(ftUnits), len(kors))
	var timer *algebra.Timer
	if p.opts.Timing {
		timer = algebra.NewTimer(maxOps)
	}
	ops := make([]algebra.Operator, 0, maxOps)
	var op algebra.Operator
	push := func(o algebra.Operator) {
		op = timer.Wrap(o)
		ops = append(ops, op)
	}
	// prune pushes a topkPrune over the chain so far.
	prune := func(mode algebra.Mode, korBound float64, sorted bool) *algebra.TopKPruneOp {
		t := &algebra.TopKPruneOp{
			In: op, K: k, Mode: mode, Ranker: ranker, KorBound: korBound,
			SortedInput: sorted, Shared: shared, Cancel: cancel,
		}
		push(t)
		return t
	}

	push(src)
	if p.access == AccessTwigJoin {
		if units := m.RequiredConstraintUnits(); len(units) > 0 {
			push(&algebra.UnitFilterOp{In: op, Matcher: m, Units: units})
		}
	} else {
		push(&algebra.RequiredOp{In: op, Matcher: m})
	}

	totalK := 0.0
	for _, kor := range kors {
		totalK += algebra.MaxKORScore(ix, kor, nil)
	}

	// vor sits right before the first operator that reads V. Under rank
	// K,V,S that is whatever follows the last kor: Algorithm 3 reads V
	// only among K-ties at kor-scorebound 0, so every prune and sort
	// ahead of that point decides on K alone (ModeK) and value elements
	// are located, read and keyed only for the answers the K cuts leave.
	// Every other order reads V from its first prune on.
	hasVOR := prof != nil && len(prof.VORs) > 0
	early := mode // the mode of the prunes and sorts ahead of vor
	if hasVOR && mode == algebra.ModeKVS {
		early = algebra.ModeK
	}
	pushing := strat == Push

	// Score-contributing keyword joins, required first.
	for _, u := range ftUnits {
		push(&algebra.FTOp{In: op, Matcher: m, Unit: u})
	}
	push(&algebra.BonusOp{In: op, Matcher: m, Units: m.OptionalBonusUnits()})
	if hasVOR && early == mode {
		push(algebra.NewVOROp(op, ix, prof))
	}

	// The distinguished node's tag, when it is a fixed name, is every
	// answer's: kor resolves its tag test against it once.
	korTag := p.distTag
	if korTag == "*" {
		korTag = ""
	}
	remK := totalK
	for i, kor := range kors {
		last := i == len(kors)-1
		if pushing {
			// Prune right before each kor with the sum of the remaining
			// KORs' maximal scores (Section 6.3's Plan 2 description).
			prune(early, remK, false)
		}
		push(algebra.NewKOROp(op, ix, kor, korTag))
		remK -= algebra.MaxKORScore(ix, kor, nil)
		if remK < 1e-12 {
			remK = 0 // absorb floating-point residue: the bound is conceptually exact
		}
		if last && early != mode {
			// K is final. Pushed all the way, one K-only prune at
			// kor-scorebound 0 stands between the last kor and vor: k
			// answers with strictly larger K outrank whatever it drops.
			if pushing {
				prune(early, remK, false)
			}
			push(algebra.NewVOROp(op, ix, prof))
			early = mode
		}
		switch strat {
		case InterleaveNoSort:
			prune(early, remK, false)
		case InterleaveSort:
			push(&algebra.SortOp{In: op, Ranker: ranker, Mode: early, Batch: p.batch})
			prune(early, remK, true)
		}
		if pushing && last {
			// Pushed all the way also means pruning after the last KOR
			// (kor-scorebound 0), so the final sort sees a k-sized stream
			// instead of every candidate.
			prune(mode, remK, false)
		}
	}

	// Final ranking: parametric sort + topkPrune (Fig. 4's plan tops). A
	// score-free stream is in rank order as the source emits it.
	if !p.scoreFree {
		push(&algebra.SortOp{In: op, Ranker: ranker, Mode: mode, Batch: p.batch})
	}
	final := prune(mode, 0, true)

	return ops, final
}

// oracleTierMembers gallops the shortest list the members are in (the stream,
// for held 0) against every list, checking held, and the stream.
func oracleTierMembers(lists [][]xmldoc.NodeID, stream []xmldoc.NodeID, held uint32) []xmldoc.NodeID {
	lead := stream
	for i, l := range lists {
		if held&(1<<i) != 0 && len(l) < len(lead) {
			lead = l
		}
	}
	var at [maxTierPhrases + 2]int // cursors: the lists, then the stream
	has := func(list []xmldoc.NodeID, c *int, e xmldoc.NodeID) bool {
		*c = index.SeekGE(list, *c, e)
		return *c < len(list) && list[*c] == e
	}
	var out []xmldoc.NodeID
next:
	for _, e := range lead {
		for i, l := range lists {
			if has(l, &at[i], e) != (held&(1<<i) != 0) {
				continue next
			}
		}
		if has(stream, &at[len(lists)], e) {
			out = append(out, e)
		}
	}
	return out
}
