// Package algebra implements the paper's query algebra (Section 6.2,
// Fig. 3): pipelined operators over answer streams — scans, structural
// and full-text semijoins, the vor and kor operators, parametric sort,
// and the three OR-aware topkPrune algorithms of Section 6.3.
//
// The operator protocol is batch-at-a-time (Operator.NextBatch): a pull
// moves up to a caller-sized slice of answers through the chain in
// place. The source emits candidates in document order, so the keyword
// joins (ftjoin, kor), the vor operator's attribute lookups and the
// Matcher's descendant steps are merge joins — forward cursors over
// sorted index lists resolved once per plan (index.PhraseList,
// index.SeekGE) that fall back to binary search when a probe is behind
// the cursor — and per-operator timing and cancellation cost one clock
// pair and one context poll per batch, not per answer.
//
// Plans pipeline bindings of the distinguished pattern node ("we wanted
// to choose plans which ... allow the distinguished node bindings to be
// pipelined throughout"). Every other predicate of the extended TPQ is
// enforced as an independent semijoin against the candidate, exactly as
// the paper's Fig. 4 plans do (one join per keyword / structural
// predicate); joins with keywords contribute score, structural semijoins
// do not.
package algebra

import (
	"math"
	"slices"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// UnitKind discriminates semijoin units.
type UnitKind uint8

const (
	// UnitExist requires a binding of the pattern node to exist.
	UnitExist UnitKind = iota
	// UnitConstraint requires a binding satisfying a value constraint.
	UnitConstraint
	// UnitFT requires a binding whose subtree contains a phrase; it is a
	// score contributor.
	UnitFT
)

// Unit is one semijoin obligation of a query, anchored at a pattern node
// and evaluated per distinguished-node candidate.
type Unit struct {
	Kind UnitKind
	Node int // pattern node index
	C    tpq.Constraint
	F    tpq.FTPred
	// Optional units never filter; they add Weight-scaled score when
	// satisfied (the outer-join encoding of scoping rules).
	Optional bool
	Weight   float64
}

// Matcher decomposes a query into units and evaluates them per candidate.
// A Matcher is NOT safe for concurrent use: it reuses internal scratch
// buffers across calls (each plan builds its own Matcher).
type Matcher struct {
	ix    *index.Index
	doc   *xmldoc.Document
	pos   xmldoc.Positions // flat (post, level) arrays; O(1) region tests
	q     *tpq.Query
	paths [][]step // per pattern node: steps from the distinguished node
	units []Unit
	// lists[i] is FT unit i's resolved (tag, phrase) list; other kinds
	// leave their entry zero.
	lists []index.PhraseList
	// The unit partitions plans ask for, computed once (MatchRequired
	// reads required per candidate).
	required, ft, requiredConstraint, optionalBonus []int

	bufA, bufB []xmldoc.NodeID  // navigation scratch, swapped per step
	bufC, bufD []xmldoc.NodeID  // rooted's scratch
	self       [1]xmldoc.NodeID // the candidate as its own binding set
}

// step is one navigation step of a pattern path. tag is the target
// pattern node's tag; both directions filter on it. A descendant step
// walks elems, the tag's index list, from a forward cursor. A rooted
// step (the last upward one, landing on the path's turning node) keeps
// only the elements that embed the pattern's root→node chain.
type step struct {
	down   bool
	axis   tpq.Axis
	tag    string
	elems  []xmldoc.NodeID
	cur    int
	rooted bool
	node   int // the pattern node a rooted step lands on
}

// NewMatcher prepares unit evaluation for q against the index.
func NewMatcher(ix *index.Index, q *tpq.Query) *Matcher {
	m := &Matcher{ix: ix, doc: ix.Document(), pos: ix.Document().Pos(), q: q}
	m.paths = make([][]step, len(q.Nodes))
	distAnc := q.Ancestors(q.Dist)
	for i := range q.Nodes {
		m.paths[i] = m.pathFromDist(distAnc, i)
	}
	m.buildUnits()
	return m
}

// pathFromDist computes the navigation steps from the distinguished node
// to pattern node pn: up to the lowest common ancestor, then down.
// distAnc is the distinguished node's ancestor path, root first.
func (m *Matcher) pathFromDist(distAnc []int, pn int) []step {
	pnAnc := m.q.Ancestors(pn) // root..pn
	// Both paths start at the pattern root, so the LCA ends their common
	// prefix.
	lca := 0
	for lca+1 < len(distAnc) && lca+1 < len(pnAnc) && distAnc[lca+1] == pnAnc[lca+1] {
		lca++
	}
	var steps []step
	// Up from dist to the LCA: each hop crosses the edge above distAnc[i]
	// and must land on an element tagged like the target pattern node.
	// The LCA binding must also hang from the pattern root — pn's
	// Y-pattern (DESIGN §13) shares the root→LCA prefix with the
	// distinguished chain — unless that prefix is a root with nothing
	// above it to check.
	for i := len(distAnc) - 1; i > lca; i-- {
		steps = append(steps, step{
			down: false,
			axis: m.q.Nodes[distAnc[i]].Axis,
			tag:  m.q.Nodes[distAnc[i-1]].Tag,
		})
	}
	if n := len(steps); n > 0 && (lca > 0 || m.q.Nodes[0].Axis == tpq.Child) {
		steps[n-1].rooted, steps[n-1].node = true, distAnc[lca]
	}
	// Down from the LCA to pn.
	for i := lca + 1; i < len(pnAnc); i++ {
		n := pnAnc[i]
		steps = append(steps, step{
			down: true, axis: m.q.Nodes[n].Axis, tag: m.q.Nodes[n].Tag,
			elems: m.ix.Elements(m.q.Nodes[n].Tag),
		})
	}
	return steps
}

func (m *Matcher) buildUnits() {
	for pn, n := range m.q.Nodes {
		effOpt := m.q.OnOptionalBranch(pn)
		if pn != m.q.Dist {
			m.units = append(m.units, Unit{
				Kind: UnitExist, Node: pn,
				Optional: effOpt,
				Weight:   n.Weight,
			})
		}
		for _, c := range n.Constraints {
			m.units = append(m.units, Unit{
				Kind: UnitConstraint, Node: pn, C: c,
				Optional: c.Optional || effOpt,
				Weight:   c.Weight,
			})
		}
		for _, f := range n.FT {
			w := f.Weight
			if !f.Optional && !effOpt {
				w = 1 // required keyword joins contribute with unit weight
			}
			m.units = append(m.units, Unit{
				Kind: UnitFT, Node: pn, F: f,
				Optional: f.Optional || effOpt,
				Weight:   w,
			})
		}
	}
	m.lists = make([]index.PhraseList, len(m.units))
	var optFT []int
	for i, u := range m.units {
		switch {
		case u.Kind == UnitFT:
			m.lists[i] = m.ix.Phrase(m.q.Nodes[u.Node].Tag, u.F.Phrase)
			if u.Optional {
				optFT = append(optFT, i)
			} else {
				m.ft = append(m.ft, i)
			}
		case !u.Optional:
			m.required = append(m.required, i)
			if u.Kind == UnitConstraint {
				m.requiredConstraint = append(m.requiredConstraint, i)
			}
		case u.Weight > 0:
			m.optionalBonus = append(m.optionalBonus, i)
		}
	}
	m.ft = append(m.ft, optFT...)
}

// Units returns the query's semijoin units. Callers must not modify the
// returned slice, nor those of the four partitions below.
func (m *Matcher) Units() []Unit { return m.units }

// FTUnits returns the indices of full-text units, required first
// (the score-contributing joins of Fig. 4).
func (m *Matcher) FTUnits() []int { return m.ft }

// RequiredConstraintUnits returns the required constraint units only —
// what remains to filter when a structural access path (the twig
// semijoin) has already guaranteed the skeleton.
func (m *Matcher) RequiredConstraintUnits() []int { return m.requiredConstraint }

// OptionalBonusUnits returns optional non-FT units (existence and
// constraint bonuses from encoded scoping rules).
func (m *Matcher) OptionalBonusUnits() []int { return m.optionalBonus }

// Bindings returns the elements pattern node pn can bind to for candidate
// e, following only the tag/axis skeleton along the dist→pn path. The
// returned slice aliases the matcher's scratch buffers and is only valid
// until the next Bindings/EvalUnit/MatchRequired call.
func (m *Matcher) Bindings(pn int, e xmldoc.NodeID) []xmldoc.NodeID {
	if m.bufA == nil {
		m.bufA, m.bufB = getNodeBuf(), getNodeBuf()
	}
	cur := append(m.bufA[:0], e)
	next := m.bufB[:0]
	for i := range m.paths[pn] {
		s := &m.paths[pn][i]
		if len(cur) == 0 {
			return nil
		}
		if s.down {
			next = m.down(next, cur, s)
		} else {
			next = m.up(next, cur, s.tag, s.axis)
		}
		cur, next = next, cur[:0]
		if s.rooted {
			kept := cur[:0]
			for _, x := range cur {
				if m.rooted(x, s.node) {
					kept = append(kept, x)
				}
			}
			cur = kept
		}
	}
	// Remember the (possibly grown) buffers for reuse.
	m.bufA, m.bufB = cur[:len(cur)], next[:0]
	return cur
}

// ReleaseScratch returns the matcher's navigation buffers to the shared
// pool. The matcher stays usable — Bindings re-acquires lazily — but any
// slice a previous Bindings call returned is invalidated, so release
// only between candidates (in practice: when the owning chain finishes).
func (m *Matcher) ReleaseScratch() {
	if m.bufA == nil {
		return
	}
	putNodeBuf(m.bufA)
	putNodeBuf(m.bufB)
	m.bufA, m.bufB = nil, nil
	if m.bufC != nil {
		putNodeBuf(m.bufC)
		putNodeBuf(m.bufD)
		m.bufC, m.bufD = nil, nil
	}
}

// rooted reports whether element x, bound to pattern node t, lies on an
// embedding of the pattern's root→t chain, the root axis included.
func (m *Matcher) rooted(x xmldoc.NodeID, t int) bool {
	if m.bufC == nil {
		m.bufC, m.bufD = getNodeBuf(), getNodeBuf()
	}
	cur, next := append(m.bufC[:0], x), m.bufD[:0]
	for ; t != 0 && len(cur) > 0; t = m.q.Nodes[t].Parent {
		next = m.up(next[:0], cur, m.q.Nodes[m.q.Nodes[t].Parent].Tag, m.q.Nodes[t].Axis)
		cur, next = next, cur
	}
	m.bufC, m.bufD = cur[:0], next[:0]
	if m.q.Nodes[0].Axis == tpq.Child {
		return slices.Contains(cur, m.doc.Root())
	}
	return len(cur) > 0
}

// appendUnique adds n to out unless present. Binding sets per candidate
// are tiny (usually one to a handful of elements), so linear dedup beats
// allocating a map on this hot path.
func appendUnique(out []xmldoc.NodeID, n xmldoc.NodeID) []xmldoc.NodeID {
	for _, x := range out {
		if x == n {
			return out
		}
	}
	return append(out, n)
}

func (m *Matcher) up(out, set []xmldoc.NodeID, tag string, axis tpq.Axis) []xmldoc.NodeID {
	add := func(n xmldoc.NodeID) {
		if n != xmldoc.InvalidNode && (tag == "*" || m.doc.Tag(n) == tag) {
			out = appendUnique(out, n)
		}
	}
	for _, e := range set {
		if axis == tpq.Child {
			add(m.doc.Parent(e))
		} else {
			for p := m.doc.Parent(e); p != xmldoc.InvalidNode; p = m.doc.Parent(p) {
				add(p)
			}
		}
	}
	return out
}

func (m *Matcher) down(out, set []xmldoc.NodeID, s *step) []xmldoc.NodeID {
	if s.axis == tpq.Child {
		for _, e := range set {
			for c := m.doc.FirstChild(e); c != xmldoc.InvalidNode; c = m.doc.NextSibling(c) {
				if m.doc.Kind(c) == xmldoc.Element && (s.tag == "*" || m.doc.Tag(c) == s.tag) {
					out = appendUnique(out, c)
				}
			}
		}
		return out
	}
	// Descendant axis: the tag index is preorder-sorted, so e's
	// descendants are the contiguous run (e, post(e)] — found from the
	// step's cursor (candidates arrive in document order), then walked
	// with O(1) flat-array position tests (no Node struct loads on this
	// hot path).
	tagged := s.elems
	for _, e := range set {
		post := m.pos.Post[e]
		s.cur = index.SeekGE(tagged, s.cur, e+1)
		for i := s.cur; i < len(tagged); i++ {
			d := tagged[i]
			if int32(d) > post {
				break
			}
			out = appendUnique(out, d)
		}
	}
	return out
}

// matchesUpward verifies the skeleton above the distinguished node,
// including the root axis: the pattern root must reach the document root
// when its axis is Child.
func (m *Matcher) matchesUpward(e xmldoc.NodeID) bool {
	root := 0
	bindings := m.Bindings(root, e)
	if m.q.Dist == root {
		m.self[0] = e
		bindings = m.self[:]
	}
	if len(bindings) == 0 {
		return false
	}
	if m.q.Nodes[root].Axis == tpq.Child {
		docRoot := m.doc.Root()
		for _, b := range bindings {
			if b == docRoot {
				return true
			}
		}
		return false
	}
	return true
}

// EvalUnit evaluates one unit for candidate e: sat reports whether the
// unit holds, score is its contribution (nonzero only for FT units and
// satisfied optional units).
func (m *Matcher) EvalUnit(idx int, e xmldoc.NodeID) (sat bool, score float64) {
	u := &m.units[idx]
	switch u.Kind {
	case UnitExist:
		bs := m.Bindings(u.Node, e)
		if len(bs) == 0 {
			return false, 0
		}
		if u.Optional {
			return true, u.Weight
		}
		return true, 0
	case UnitConstraint:
		for _, b := range m.bindingsOrSelf(u.Node, e) {
			if m.constraintHolds(u.C, b) {
				if u.Optional {
					return true, u.Weight
				}
				return true, 0
			}
		}
		return false, 0
	case UnitFT:
		best := 0.0
		found := false
		for _, b := range m.bindingsOrSelf(u.Node, e) {
			if s := m.lists[idx].Score(b); s > 0 {
				found = true
				if s > best {
					best = s
				}
			}
		}
		if !found {
			return false, 0
		}
		return true, u.Weight * best
	}
	return false, 0
}

func (m *Matcher) bindingsOrSelf(pn int, e xmldoc.NodeID) []xmldoc.NodeID {
	if pn == m.q.Dist {
		m.self[0] = e
		return m.self[:]
	}
	return m.Bindings(pn, e)
}

func (m *Matcher) constraintHolds(c tpq.Constraint, b xmldoc.NodeID) bool {
	var raw string
	var ok bool
	if c.Attr == "" {
		raw = m.doc.TextContent(b)
		ok = true
	} else {
		raw, ok = m.doc.AttrValue(b, c.Attr)
	}
	if !ok {
		return false
	}
	cmp, ok := c.Val.Compare(raw)
	if !ok {
		return false
	}
	return c.Op.Eval(cmp)
}

// MatchRequired reports whether candidate e passes the upward skeleton
// and every required non-FT unit.
func (m *Matcher) MatchRequired(e xmldoc.NodeID) bool {
	if dt := m.q.Nodes[m.q.Dist].Tag; dt != "*" && m.doc.Tag(e) != dt {
		return false
	}
	if !m.matchesUpward(e) {
		return false
	}
	for _, i := range m.required {
		if sat, _ := m.EvalUnit(i, e); !sat {
			return false
		}
	}
	return true
}

// MaxKORScore returns the most a keyword-based OR can move the K of an
// answer holding at most the phrases held admits (nil: any) under this
// index — Algorithm 3's kor-scorebound summand, tightened with the
// index's per-(tag, phrase) maxima and summed in KOROp's order. A
// negative weight counts at its magnitude: the k answers a prune holds
// can lose that much.
func MaxKORScore(ix *index.Index, kor *profile.KOR, held func(phrase string) bool) float64 {
	total := 0.0
	for _, p := range kor.Phrases {
		if held == nil || held(p) {
			total += kor.EffectiveWeight() * ix.MaxPhraseScore(kor.Tag, p)
		}
	}
	return math.Abs(total)
}
