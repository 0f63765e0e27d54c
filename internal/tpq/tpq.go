// Package tpq implements the paper's query class: extended tree pattern
// queries (Section 3). A TPQ is a rooted tree whose nodes are labeled by
// tags and connected by parent-child (pc) or ancestor-descendant (ad)
// edges, with a distinguished answer node. Leaf conditions are constraint
// predicates (value relOp constant, e.g. price < 2000) and keyword
// predicates (ftcontains(., "good condition")).
//
// The package also provides what scoping rules need to operate on
// queries: subsumption (containment) checks, and add/delete/replace edits
// that keep the pattern a connected tree.
package tpq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Axis is the structural relation between a pattern node and its parent.
// For the root pattern node, the axis is relative to the document: Child
// means "must be the document root element", Descendant means "anywhere".
type Axis uint8

const (
	// Child is the parent-child axis (pc-edge, "/").
	Child Axis = iota
	// Descendant is the ancestor-descendant axis (ad-edge, "//").
	Descendant
)

func (a Axis) String() string {
	if a == Child {
		return "/"
	}
	return "//"
}

// RelOp is a comparison operator of a constraint predicate.
type RelOp uint8

const (
	EQ RelOp = iota
	NE
	LT
	LE
	GT
	GE
)

var relOpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (op RelOp) String() string { return relOpNames[op] }

// Eval applies the operator to the comparison result cmp (-1, 0, +1 of
// left vs right).
func (op RelOp) Eval(cmp int) bool {
	switch op {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LT:
		return cmp < 0
	case LE:
		return cmp <= 0
	case GT:
		return cmp > 0
	case GE:
		return cmp >= 0
	}
	return false
}

// Value is a constraint literal: a number or a string.
type Value struct {
	IsNum bool
	Num   float64
	Str   string
}

// Num returns a numeric Value.
func NumValue(f float64) Value { return Value{IsNum: true, Num: f} }

// StrValue returns a string Value.
func StrValue(s string) Value { return Value{Str: s} }

// Compare compares a raw document value against the literal, returning
// (-1|0|+1, true) or ok=false when the document value cannot be
// interpreted in the literal's domain.
func (v Value) Compare(raw string) (int, bool) {
	raw = strings.TrimSpace(raw)
	if v.IsNum {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return 0, false
		}
		switch {
		case f < v.Num:
			return -1, true
		case f > v.Num:
			return 1, true
		}
		return 0, true
	}
	return strings.Compare(raw, v.Str), true
}

func (v Value) String() string {
	if v.IsNum {
		// 'f' keeps the literal inside the query grammar (the lexer has
		// no exponent syntax).
		return strconv.FormatFloat(v.Num, 'f', -1, 64)
	}
	return QuoteString(v.Str)
}

// QuoteString renders s as a query-language string literal, escaping
// exactly what the lexer unescapes (a backslash protects the next byte);
// strconv.Quote would emit \x-style escapes the lexer does not know.
func QuoteString(s string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}

// Equal reports literal equality.
func (v Value) Equal(o Value) bool {
	if v.IsNum != o.IsNum {
		return false
	}
	if v.IsNum {
		return v.Num == o.Num
	}
	return v.Str == o.Str
}

// Constraint is a value predicate on a pattern node: the node's content
// (Attr == "") or the node's attribute Attr compares against Val under Op.
type Constraint struct {
	Attr string
	Op   RelOp
	Val  Value
	// Optional marks a predicate that filters nothing but contributes
	// Weight to the score when satisfied — the outer-join encoding of
	// scoping rules (Section 6.2, Plan 1).
	Optional bool
	Weight   float64
}

func (c Constraint) String() string {
	lhs := "."
	if c.Attr != "" {
		lhs = c.Attr
	}
	s := fmt.Sprintf("%s %s %s", lhs, c.Op, c.Val)
	if c.Optional {
		s += "?"
	}
	return s
}

// FTPred is a full-text predicate: the pattern node's subtree contains an
// occurrence of Phrase at any depth.
type FTPred struct {
	Phrase string
	// Optional / Weight: see Constraint.
	Optional bool
	Weight   float64
}

func (f FTPred) String() string {
	s := "ftcontains(., " + QuoteString(f.Phrase) + ")"
	if f.Optional {
		s += "?"
	}
	return s
}

// Node is one pattern node of a TPQ.
type Node struct {
	Tag         string
	Axis        Axis // relation to the parent pattern node
	Parent      int  // index into Query.Nodes; -1 for the root
	Children    []int
	Constraints []Constraint
	FT          []FTPred
	// Optional marks the whole subtree as an outer-joined (non-filtering,
	// score-contributing) branch, produced by flock encoding.
	Optional bool
	Weight   float64
}

// Query is an extended tree pattern query. Nodes[0] is the pattern root;
// Dist indexes the distinguished (answer) node.
type Query struct {
	Nodes []Node
	Dist  int
}

// NewQuery creates a query with a single root pattern node reached via
// axis from the document root.
func NewQuery(tag string, axis Axis) *Query {
	return &Query{Nodes: []Node{{Tag: tag, Axis: axis, Parent: -1}}, Dist: 0}
}

// AddChild appends a new pattern node under parent and returns its index.
func (q *Query) AddChild(parent int, tag string, axis Axis) int {
	id := len(q.Nodes)
	q.Nodes = append(q.Nodes, Node{Tag: tag, Axis: axis, Parent: parent})
	q.Nodes[parent].Children = append(q.Nodes[parent].Children, id)
	return id
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	nq := &Query{Nodes: make([]Node, len(q.Nodes)), Dist: q.Dist}
	for i, n := range q.Nodes {
		cn := n
		cn.Children = append([]int(nil), n.Children...)
		cn.Constraints = append([]Constraint(nil), n.Constraints...)
		cn.FT = append([]FTPred(nil), n.FT...)
		nq.Nodes[i] = cn
	}
	return nq
}

// Validate checks the structural invariants: a single root, parent/child
// consistency, acyclicity, Dist in range.
func (q *Query) Validate() error {
	if len(q.Nodes) == 0 {
		return fmt.Errorf("tpq: empty query")
	}
	if q.Dist < 0 || q.Dist >= len(q.Nodes) {
		return fmt.Errorf("tpq: distinguished node %d out of range", q.Dist)
	}
	roots := 0
	seen := make([]bool, len(q.Nodes))
	for i, n := range q.Nodes {
		if n.Parent == -1 {
			roots++
			if i != 0 {
				return fmt.Errorf("tpq: root must be node 0, found root at %d", i)
			}
			continue
		}
		if n.Parent < 0 || n.Parent >= len(q.Nodes) {
			return fmt.Errorf("tpq: node %d has invalid parent %d", i, n.Parent)
		}
		found := false
		for _, c := range q.Nodes[n.Parent].Children {
			if c == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("tpq: node %d missing from parent %d's children", i, n.Parent)
		}
	}
	if roots != 1 {
		return fmt.Errorf("tpq: %d roots, want exactly 1", roots)
	}
	// Reachability from the root (acyclic by construction of the check).
	var visit func(i, depth int) error
	visit = func(i, depth int) error {
		if depth > len(q.Nodes) {
			return fmt.Errorf("tpq: cycle detected")
		}
		if seen[i] {
			return fmt.Errorf("tpq: node %d reached twice", i)
		}
		seen[i] = true
		for _, c := range q.Nodes[i].Children {
			if q.Nodes[c].Parent != i {
				return fmt.Errorf("tpq: child %d of %d has parent %d", c, i, q.Nodes[c].Parent)
			}
			if err := visit(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(0, 0); err != nil {
		return err
	}
	for i := range q.Nodes {
		if !seen[i] {
			return fmt.Errorf("tpq: node %d unreachable from root", i)
		}
	}
	return nil
}

// Ancestors returns the pattern-node path from the root down to i,
// inclusive of both.
func (q *Query) Ancestors(i int) []int {
	var path []int
	for n := i; n != -1; n = q.Nodes[n].Parent {
		path = append(path, n)
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path
}

// OnOptionalBranch reports whether pattern node i or one of its
// ancestors is an optional (outer-joined) branch: such a node never
// filters an answer.
func (q *Query) OnOptionalBranch(i int) bool {
	for n := i; n != -1; n = q.Nodes[n].Parent {
		if q.Nodes[n].Optional {
			return true
		}
	}
	return false
}

// Descendants returns i and all pattern nodes below it, in preorder.
func (q *Query) Descendants(i int) []int {
	out := []int{i}
	for _, c := range q.Nodes[i].Children {
		out = append(out, q.Descendants(c)...)
	}
	return out
}

// FindByTag returns the indexes of pattern nodes with the given tag.
func (q *Query) FindByTag(tag string) []int {
	var out []int
	for i, n := range q.Nodes {
		if n.Tag == tag {
			out = append(out, i)
		}
	}
	return out
}

// RemoveFT removes full-text predicates with the given normalized-equal
// phrase at node i or any pattern descendant of i (ftcontains(x, k) holds
// at any depth, so a rule that deletes it must reach nested occurrences).
// It returns the number of predicates removed.
func (q *Query) RemoveFT(i int, phrase string) int {
	removed := 0
	for _, d := range q.Descendants(i) {
		kept := q.Nodes[d].FT[:0]
		for _, f := range q.Nodes[d].FT {
			if strings.EqualFold(f.Phrase, phrase) {
				removed++
			} else {
				kept = append(kept, f)
			}
		}
		q.Nodes[d].FT = kept
	}
	return removed
}

// SetFTOptional marks full-text predicates with the given phrase at node
// i or any pattern descendant as optional with the given score weight —
// the outer-join encoding of a delete scoping rule (Section 6.2: the
// outer-join "ensures american cars with low mileage as well as other
// cars are captured, and assigns a higher score" to matching ones). It
// returns the number of predicates marked.
func (q *Query) SetFTOptional(i int, phrase string, weight float64) int {
	marked := 0
	for _, d := range q.Descendants(i) {
		for k := range q.Nodes[d].FT {
			f := &q.Nodes[d].FT[k]
			if strings.EqualFold(f.Phrase, phrase) {
				f.Optional = true
				f.Weight = weight
				marked++
			}
		}
	}
	return marked
}

// SetConstraintOptional marks matching constraint predicates at node i or
// any pattern descendant as optional with the given weight; see
// SetFTOptional.
func (q *Query) SetConstraintOptional(i int, attr string, op RelOp, val Value, weight float64) int {
	marked := 0
	for _, d := range q.Descendants(i) {
		for k := range q.Nodes[d].Constraints {
			c := &q.Nodes[d].Constraints[k]
			if c.Attr == attr && c.Op == op && c.Val.Equal(val) {
				c.Optional = true
				c.Weight = weight
				marked++
			}
		}
	}
	return marked
}

// RemoveConstraint removes constraint predicates on attr with the given
// op/value at node i or any pattern descendant. It returns the count.
func (q *Query) RemoveConstraint(i int, attr string, op RelOp, val Value) int {
	removed := 0
	for _, d := range q.Descendants(i) {
		kept := q.Nodes[d].Constraints[:0]
		for _, c := range q.Nodes[d].Constraints {
			if c.Attr == attr && c.Op == op && c.Val.Equal(val) {
				removed++
			} else {
				kept = append(kept, c)
			}
		}
		q.Nodes[d].Constraints = kept
	}
	return removed
}

// RemoveNode deletes the subtree rooted at pattern node i (which must be
// neither the root nor contain the distinguished node) and compacts
// indices. It returns an error otherwise.
func (q *Query) RemoveNode(i int) error {
	if i == 0 {
		return fmt.Errorf("tpq: cannot remove the pattern root")
	}
	doomed := q.Descendants(i)
	isDoomed := make(map[int]bool, len(doomed))
	for _, d := range doomed {
		isDoomed[d] = true
	}
	if isDoomed[q.Dist] {
		return fmt.Errorf("tpq: cannot remove the distinguished node")
	}
	// Build the index remap.
	remap := make([]int, len(q.Nodes))
	next := 0
	for idx := range q.Nodes {
		if isDoomed[idx] {
			remap[idx] = -1
			continue
		}
		remap[idx] = next
		next++
	}
	newNodes := make([]Node, 0, next)
	for idx, n := range q.Nodes {
		if isDoomed[idx] {
			continue
		}
		if n.Parent != -1 {
			n.Parent = remap[n.Parent]
		}
		kids := n.Children[:0]
		for _, c := range n.Children {
			if !isDoomed[c] {
				kids = append(kids, remap[c])
			}
		}
		n.Children = kids
		newNodes = append(newNodes, n)
	}
	q.Nodes = newNodes
	q.Dist = remap[q.Dist]
	return nil
}

// RelaxEdge turns the pc-edge above node i into an ad-edge (a classic
// relaxation from FleXPath [3]); it is a no-op on ad-edges and the root.
func (q *Query) RelaxEdge(i int) {
	if i != 0 {
		q.Nodes[i].Axis = Descendant
	}
}

// String renders the query in the parseable query language. The path
// from the pattern root to the distinguished node is rendered as the
// top-level step spine (so the parser's default distinguished node is
// preserved); every other branch becomes a bracketed predicate.
func (q *Query) String() string {
	spine := q.Ancestors(q.Dist)
	nextOnSpine := make(map[int]int, len(spine)) // node -> its spine child
	for i := 0; i+1 < len(spine); i++ {
		nextOnSpine[spine[i]] = spine[i+1]
	}
	var sb strings.Builder
	for _, n := range spine {
		node := q.Nodes[n]
		sb.WriteString(node.Axis.String())
		sb.WriteString(node.Tag)
		preds := q.nodePreds(n, nextOnSpine[n], n == q.Dist)
		if len(preds) > 0 {
			sb.WriteString("[")
			sb.WriteString(strings.Join(preds, " and "))
			sb.WriteString("]")
		}
	}
	return sb.String()
}

// nodePreds renders the predicates of node i, skipping the child skipChild
// (0 is never a valid spine child, so 0 with isLast means "none").
func (q *Query) nodePreds(i, skipChild int, isLast bool) []string {
	n := q.Nodes[i]
	var preds []string
	for _, c := range n.Constraints {
		preds = append(preds, c.String())
	}
	for _, f := range n.FT {
		p := ". ftcontains " + QuoteString(f.Phrase)
		if f.Optional {
			p += "?"
		}
		preds = append(preds, p)
	}
	for _, c := range n.Children {
		if !isLast && c == skipChild {
			continue
		}
		var cb strings.Builder
		q.writeBranch(&cb, c)
		s := cb.String()
		if q.Nodes[c].Optional {
			s += "?"
		}
		preds = append(preds, s)
	}
	return preds
}

// writeBranch renders a non-spine subtree as a predicate path.
func (q *Query) writeBranch(sb *strings.Builder, i int) {
	n := q.Nodes[i]
	sb.WriteString(n.Axis.String())
	sb.WriteString(n.Tag)
	preds := q.nodePreds(i, 0, true)
	if len(preds) > 0 {
		sb.WriteString("[")
		sb.WriteString(strings.Join(preds, " and "))
		sb.WriteString("]")
	}
}

// ExpandPhrases returns a copy of q in which every required full-text
// predicate gains one optional predicate per synonym (weighted, so
// synonym-only matches rank below exact matches) — thesaurus-based query
// expansion, the extension Section 7.1 of the paper mentions but does
// not evaluate. syn maps a phrase to its synonyms; weight scales the
// synonym predicates' score contribution (e.g. 0.5).
func (q *Query) ExpandPhrases(syn func(string) []string, weight float64) *Query {
	out := q.Clone()
	for i := range out.Nodes {
		n := &out.Nodes[i]
		orig := len(n.FT)
		for j := 0; j < orig; j++ {
			f := n.FT[j]
			if f.Optional {
				continue
			}
			for _, s := range syn(f.Phrase) {
				n.FT = append(n.FT, FTPred{Phrase: s, Optional: true, Weight: weight})
			}
		}
	}
	return out
}

// Phrases returns all distinct full-text phrases in the query, sorted.
func (q *Query) Phrases() []string {
	set := map[string]bool{}
	for _, n := range q.Nodes {
		for _, f := range n.FT {
			set[f.Phrase] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
