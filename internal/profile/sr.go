package profile

import (
	"fmt"
	"strings"

	"repro/internal/tpq"
)

// SRKind discriminates the three scoping-rule actions of Section 3.1:
// add rules narrow the search, delete and replace rules broaden it.
type SRKind uint8

const (
	SRAdd SRKind = iota
	SRDelete
	SRReplace
	// SRRelax generalizes structural predicates (pc-edge to ad-edge),
	// the classic FleXPath relaxation [3, 19] the paper's Section 3.1
	// lists among the broadening rewritings ("a parent-child
	// relationship may be relaxed to ancestor-descendant").
	SRRelax
)

func (k SRKind) String() string {
	switch k {
	case SRAdd:
		return "add"
	case SRDelete:
		return "remove"
	case SRReplace:
		return "replace"
	case SRRelax:
		return "relax"
	}
	return "?"
}

// AtomKind discriminates condition/conclusion atoms.
type AtomKind uint8

const (
	// AtomPC is a structural parent-child atom pc(X, Y).
	AtomPC AtomKind = iota
	// AtomAD is a structural ancestor-descendant atom ad(X, Y).
	AtomAD
	// AtomFT is ftcontains(X, "phrase").
	AtomFT
	// AtomCmp is a constraint X relOp value (on X's content) or
	// X.Attr relOp value.
	AtomCmp
)

// Atom is one predicate of a scoping rule's condition or conclusion.
// Variables are identified by tag names, as in the paper's Fig. 2 where
// conditions like pc(car, description) name pattern nodes by their tags.
type Atom struct {
	Kind   AtomKind
	X, Y   string // X for all atoms; Y for structural atoms
	Phrase string // AtomFT
	Attr   string // AtomCmp: "" means X's own content
	Op     tpq.RelOp
	Val    tpq.Value
}

func (a Atom) String() string {
	switch a.Kind {
	case AtomPC:
		return fmt.Sprintf("pc(%s, %s)", a.X, a.Y)
	case AtomAD:
		return fmt.Sprintf("ad(%s, %s)", a.X, a.Y)
	case AtomFT:
		return fmt.Sprintf("ftcontains(%s, %q)", a.X, a.Phrase)
	case AtomCmp:
		lhs := a.X
		if a.Attr != "" {
			lhs += "." + a.Attr
		}
		return fmt.Sprintf("%s %s %s", lhs, a.Op, a.Val)
	}
	return "?"
}

// SR is a scoping rule: if (condition) then (action, conclusion) for
// add/delete rules, or if (condition) then replace E with E' for replace
// rules (Section 3.1).
type SR struct {
	Name string
	Kind SRKind
	Cond []Atom
	// Concl is the add/delete payload; for replace rules ReplWhat is
	// deleted and ReplWith added.
	Concl    []Atom
	ReplWhat []Atom
	ReplWith []Atom
	// Priority fixes the application order when rules conflict (Section
	// 5.1); lower number = applied earlier. 0 means unprioritized.
	Priority int
	// Weight is the score contributed by the rule's optional predicates
	// under flock encoding (default 1).
	Weight float64

	condQ *tpq.Query // compiled condition pattern, built lazily
}

// EffectiveWeight returns the flock-encoding score weight (default 1).
func (sr *SR) EffectiveWeight() float64 {
	if sr.Weight == 0 {
		return 1
	}
	return sr.Weight
}

func (sr *SR) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: if ", sr.Name)
	for i, a := range sr.Cond {
		if i > 0 {
			sb.WriteString(" & ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteString(" then ")
	switch sr.Kind {
	case SRReplace:
		sb.WriteString("replace ")
		for i, a := range sr.ReplWhat {
			if i > 0 {
				sb.WriteString(" & ")
			}
			sb.WriteString(a.String())
		}
		sb.WriteString(" with ")
		for i, a := range sr.ReplWith {
			if i > 0 {
				sb.WriteString(" & ")
			}
			sb.WriteString(a.String())
		}
	default:
		sb.WriteString(sr.Kind.String())
		sb.WriteString(" ")
		for i, a := range sr.Concl {
			if i > 0 {
				sb.WriteString(" & ")
			}
			sb.WriteString(a.String())
		}
	}
	return sb.String()
}

// CondQuery compiles the condition atoms into an unanchored tree pattern
// for subsumption checks. The atoms must form a connected tree over the
// variables (the paper's well-formedness requirement).
func (sr *SR) CondQuery() (*tpq.Query, error) {
	if sr.condQ != nil {
		return sr.condQ, nil
	}
	q, _, err := atomsToPattern(sr.Cond)
	if err != nil {
		return nil, fmt.Errorf("profile: sr %s: %w", sr.Name, err)
	}
	sr.condQ = q
	return q, nil
}

// atomsToPattern builds a tree pattern from atoms and returns it plus the
// variable-to-node mapping.
func atomsToPattern(atoms []Atom) (*tpq.Query, map[string]int, error) {
	if len(atoms) == 0 {
		return nil, nil, fmt.Errorf("empty atom conjunction")
	}
	type edge struct {
		parent, child string
		axis          tpq.Axis
	}
	var edges []edge
	vars := map[string]bool{}
	for _, a := range atoms {
		vars[a.X] = true
		switch a.Kind {
		case AtomPC:
			vars[a.Y] = true
			edges = append(edges, edge{a.X, a.Y, tpq.Child})
		case AtomAD:
			vars[a.Y] = true
			edges = append(edges, edge{a.X, a.Y, tpq.Descendant})
		}
	}
	// Find the root: the unique variable that is never a child.
	isChild := map[string]bool{}
	parentOf := map[string]edge{}
	for _, e := range edges {
		if isChild[e.child] {
			return nil, nil, fmt.Errorf("variable %s has two parents", e.child)
		}
		isChild[e.child] = true
		parentOf[e.child] = e
	}
	var root string
	for v := range vars {
		if !isChild[v] {
			if root != "" {
				return nil, nil, fmt.Errorf("atoms are not connected: roots %s and %s", root, v)
			}
			root = v
		}
	}
	if root == "" {
		return nil, nil, fmt.Errorf("structural atoms form a cycle")
	}
	q := tpq.NewQuery(root, tpq.Descendant)
	nodeOf := map[string]int{root: 0}
	// Attach children until all variables are placed.
	for placed := 1; placed < len(vars); {
		progress := false
		for v := range vars {
			if _, done := nodeOf[v]; done {
				continue
			}
			e := parentOf[v]
			p, ok := nodeOf[e.parent]
			if !ok {
				continue
			}
			nodeOf[v] = q.AddChild(p, v, e.axis)
			placed++
			progress = true
		}
		if !progress {
			return nil, nil, fmt.Errorf("atoms are not connected")
		}
	}
	for _, a := range atoms {
		n, ok := nodeOf[a.X]
		if !ok {
			return nil, nil, fmt.Errorf("unknown variable %s", a.X)
		}
		switch a.Kind {
		case AtomFT:
			q.Nodes[n].FT = append(q.Nodes[n].FT, tpq.FTPred{Phrase: a.Phrase})
		case AtomCmp:
			q.Nodes[n].Constraints = append(q.Nodes[n].Constraints,
				tpq.Constraint{Attr: a.Attr, Op: a.Op, Val: a.Val})
		}
	}
	return q, nodeOf, nil
}

// Applicable reports whether the rule's condition is subsumed by q
// (Section 5.1: "a rule p is applicable to a query Q if the condition in
// p is subsumed by Q").
func (sr *SR) Applicable(q *tpq.Query) bool {
	cond, err := sr.CondQuery()
	if err != nil {
		return false
	}
	return tpq.SubsumedBy(cond, q)
}

// Apply rewrites q by this rule (literal rewriting semantics, used to
// build the query flock and to detect conflicts). It returns the
// rewritten query and true, or (q, false) when the rule is inapplicable
// or its action cannot be carried out. q itself is never mutated.
func (sr *SR) Apply(q *tpq.Query) (*tpq.Query, bool) { return sr.rewrite(q, false) }

// EncodeOptional enforces the rule on q via the flock encoding of Section
// 6.2: instead of literally rewriting, added predicates become optional
// score-contributing (outer-joined) predicates, and deleted predicates
// are kept but demoted to optional — so answers of both the original and
// the rewritten query are captured, with the preferred ones scoring
// higher. Returns (rewritten, true) or (q, false) when inapplicable.
func (sr *SR) EncodeOptional(q *tpq.Query) (*tpq.Query, bool) { return sr.rewrite(q, true) }

// rewrite is Apply (optional false) and EncodeOptional (optional true).
// With optional, the added and deleted material is marked optional with
// the rule's weight instead of being added or removed outright. Edge
// relaxation is the same either way: every pc-match is already an
// ad-match, so the literal rewrite is the encoding.
func (sr *SR) rewrite(q *tpq.Query, optional bool) (*tpq.Query, bool) {
	binding, ok := sr.bind(q)
	if !ok {
		return q, false
	}
	var w float64
	if optional {
		w = sr.EffectiveWeight()
	}
	out := q.Clone()
	switch sr.Kind {
	case SRAdd:
		ok = applyAdd(out, binding, sr.Concl, optional, w)
	case SRDelete:
		ok = applyDelete(out, binding, sr.Concl, optional, w)
	case SRReplace:
		ok = applyDelete(out, binding, sr.ReplWhat, optional, w) &&
			applyAdd(out, binding, sr.ReplWith, optional, w)
	case SRRelax:
		ok = applyRelax(out, binding, sr.Concl)
	}
	if !ok {
		return q, false
	}
	return out, true
}

// applyRelax generalizes each pc(X, Y) conclusion atom into an ad-edge
// on the bound child node. Atoms other than pc are rejected.
func applyRelax(q *tpq.Query, binding map[string]int, atoms []Atom) bool {
	for _, a := range atoms {
		if a.Kind != AtomPC {
			return false
		}
		p, okP := binding[a.X]
		if !okP {
			return false
		}
		relaxed := false
		for _, c := range q.Nodes[p].Children {
			if q.Nodes[c].Tag == a.Y && q.Nodes[c].Axis == tpq.Child {
				q.RelaxEdge(c)
				relaxed = true
				break
			}
		}
		if !relaxed {
			return false
		}
	}
	return true
}

// bind finds the condition's embedding into q and returns the variable ->
// q-node binding.
func (sr *SR) bind(q *tpq.Query) (map[string]int, bool) {
	cond, err := sr.CondQuery()
	if err != nil {
		return nil, false
	}
	assign, ok := tpq.Embedding(cond, q)
	if !ok {
		return nil, false
	}
	binding := make(map[string]int, len(cond.Nodes))
	for i, n := range cond.Nodes {
		binding[n.Tag] = assign[i]
	}
	return binding, true
}

// applyAdd attaches the conclusion atoms to q through the binding.
// Structural atoms may introduce new pattern nodes; FT and Cmp atoms
// attach to bound or newly created nodes. When optional is true the added
// material is marked optional with weight w (0 otherwise).
func applyAdd(q *tpq.Query, binding map[string]int, atoms []Atom, optional bool, w float64) bool {
	local := make(map[string]int, len(binding))
	for k, v := range binding {
		local[k] = v
	}
	// Structural atoms first (they may create attachment points). Loop to
	// a fixpoint so chains pc(a,b) & pc(b,c) resolve in any order.
	pending := append([]Atom(nil), atoms...)
	for {
		progress := false
		rest := pending[:0]
		for _, a := range pending {
			if a.Kind != AtomPC && a.Kind != AtomAD {
				rest = append(rest, a)
				continue
			}
			p, ok := local[a.X]
			if !ok {
				rest = append(rest, a)
				continue
			}
			axis := tpq.Child
			if a.Kind == AtomAD {
				axis = tpq.Descendant
			}
			id := q.AddChild(p, a.Y, axis)
			if optional {
				q.Nodes[id].Optional = true
				q.Nodes[id].Weight = w
			}
			local[a.Y] = id
			progress = true
		}
		pending = rest
		if !progress {
			break
		}
	}
	for _, a := range pending {
		switch a.Kind {
		case AtomPC, AtomAD:
			return false // dangling structural atom (unbound parent)
		case AtomFT:
			n, ok := local[a.X]
			if !ok {
				return false
			}
			q.Nodes[n].FT = append(q.Nodes[n].FT,
				tpq.FTPred{Phrase: a.Phrase, Optional: optional, Weight: w})
		case AtomCmp:
			n, ok := local[a.X]
			if !ok {
				return false
			}
			q.Nodes[n].Constraints = append(q.Nodes[n].Constraints,
				tpq.Constraint{Attr: a.Attr, Op: a.Op, Val: a.Val,
					Optional: optional, Weight: w})
		}
	}
	return true
}

// applyDelete removes (or, when optional is true, demotes to optional)
// the conclusion's predicates. FT and Cmp atoms remove matching
// predicates at or below the bound node (ftcontains holds at any depth);
// structural atoms remove a matching child subtree. Deleting is a no-op
// success when nothing matches — the rule still applied, the query simply
// did not contain the optional part.
func applyDelete(q *tpq.Query, binding map[string]int, atoms []Atom, optional bool, w float64) bool {
	for _, a := range atoms {
		n, ok := binding[a.X]
		if !ok {
			return false
		}
		switch a.Kind {
		case AtomFT:
			if optional {
				q.SetFTOptional(n, a.Phrase, w)
			} else {
				q.RemoveFT(n, a.Phrase)
			}
		case AtomCmp:
			if optional {
				q.SetConstraintOptional(n, a.Attr, a.Op, a.Val, w)
			} else {
				q.RemoveConstraint(n, a.Attr, a.Op, a.Val)
			}
		case AtomPC, AtomAD:
			// Remove a matching child subtree of the bound parent.
			for _, c := range q.Nodes[n].Children {
				if q.Nodes[c].Tag != a.Y {
					continue
				}
				if a.Kind == AtomPC && q.Nodes[c].Axis != tpq.Child {
					continue
				}
				if optional {
					q.Nodes[c].Optional = true
					q.Nodes[c].Weight = w
				} else if err := q.RemoveNode(c); err != nil {
					return false
				}
				break
			}
		}
	}
	return true
}
