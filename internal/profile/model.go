package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tpq"
)

// RankOrder selects how the three ranking components combine (Section
// 3.3): KVS orders answers by KOR score first, then VOR preference, then
// query score; VKS puts VOR preference first.
type RankOrder uint8

const (
	// KVS is the paper's default order K, V, S.
	KVS RankOrder = iota
	// VKS is the alternative order V, K, S.
	VKS
	// Blend ranks by the combined score K + S (with V as tie-break) —
	// the weighted fine-tuning the paper's conclusion proposes ("using
	// weights to perform a fine-tuning of the application of the SRs …
	// incorporate those weights when the query score is computed",
	// Sections 7.1 and 8). Under Blend, KOR weights and scoping-rule
	// weights trade off against exact query matches instead of KOR
	// matches strictly dominating.
	Blend
)

func (r RankOrder) String() string {
	switch r {
	case VKS:
		return "V,K,S"
	case Blend:
		return "K+S,V"
	}
	return "K,V,S"
}

// Profile is a user profile H = (Σ, O_v, O_k): scoping rules, value-based
// ordering rules, keyword-based ordering rules, plus the named partial
// orders the VORs reference and the rank order for answers.
type Profile struct {
	SRs    []*SR
	VORs   []*VOR
	KORs   []*KOR
	Orders map[string]*PartialOrder
	Rank   RankOrder
}

// NewProfile returns an empty profile with the default K,V,S rank order.
func NewProfile() *Profile {
	return &Profile{Orders: make(map[string]*PartialOrder)}
}

// AttrConstraint is a local condition on a single rule variable:
// var.Attr Op Val (e.g. x.color = "red", y.age != 33).
type AttrConstraint struct {
	Attr string
	Op   tpq.RelOp
	Val  tpq.Value
}

func (c AttrConstraint) String() string {
	return fmt.Sprintf(".%s %s %s", c.Attr, c.Op, c.Val)
}

// Holds evaluates the constraint against an attribute lookup for one
// answer element. Missing attributes fail the constraint.
func (c AttrConstraint) Holds(lookup func(string) (string, bool)) bool {
	raw, ok := lookup(c.Attr)
	if !ok {
		return false
	}
	cmp, ok := c.Val.Compare(raw)
	if !ok {
		return false
	}
	return c.Op.Eval(cmp)
}

// VORForm discriminates the three value-based OR shapes of Section 3.2.
type VORForm uint8

const (
	// FormEqConst is form (1): C & x.attr = c & y.attr != c -> x ≺ y.
	FormEqConst VORForm = iota
	// FormAttrCmp is form (2): C & x.attr relOp y.attr -> x ≺ y, relOp in {<,>}.
	FormAttrCmp
	// FormPrefRel is form (3): C & prefRel(x.attr, y.attr) -> x ≺ y.
	FormPrefRel
)

// VOR is a value-based ordering rule. The common condition C is the tag
// equality plus CommonEq attribute equalities; LocalX/LocalY are extra
// per-side conditions. The form fields say when x is preferred to y.
type VOR struct {
	Name     string
	Tag      string   // x.tag = Tag & y.tag = Tag (common condition)
	CommonEq []string // attrs equated across x and y, e.g. make in ω3
	LocalX   []AttrConstraint
	LocalY   []AttrConstraint

	Form  VORForm
	Attr  string        // the attribute the form tests
	Const tpq.Value     // FormEqConst: the constant c
	Op    tpq.RelOp     // FormAttrCmp: LT or GT
	Order *PartialOrder // FormPrefRel

	// Priority resolves ambiguity (Section 5.2): lower number = higher
	// priority. Rules with priority 0 are unprioritized.
	Priority int
}

// Validate checks the rule is well-formed per Section 3.2 (relOp must be
// < or > so ≺ stays a strict partial order).
func (v *VOR) Validate() error {
	if v.Tag == "" {
		return fmt.Errorf("profile: vor %s: missing tag condition", v.Name)
	}
	if v.Attr == "" {
		return fmt.Errorf("profile: vor %s: missing attribute", v.Name)
	}
	switch v.Form {
	case FormAttrCmp:
		if v.Op != tpq.LT && v.Op != tpq.GT {
			return fmt.Errorf("profile: vor %s: relOp must be < or > (Section 3.2)", v.Name)
		}
	case FormPrefRel:
		if v.Order == nil {
			return fmt.Errorf("profile: vor %s: missing preference relation", v.Name)
		}
	}
	return nil
}

// Key is the per-answer digest a VOR needs to compare two answers without
// touching the document again: the algebra's vor operator computes it
// once per answer ("applies a value-based OR by augmenting current
// answers with their OR value", Fig. 3).
type Key struct {
	TagOK     bool
	LocalXOK  bool // this answer satisfies local(x): it can be the preferred side
	LocalYOK  bool // this answer satisfies local(y): it can be the dominated side
	Common    []string
	HasCommon []bool
	Val       string // raw value of the form attribute
	HasVal    bool
	Num       float64 // Val as a number; parsed for FormAttrCmp rules only, which alone read it
	HasNum    bool
}

// KeyFor computes the rule's Key for an answer, given its tag and an
// attribute lookup.
func (v *VOR) KeyFor(tag string, lookup func(string) (string, bool)) Key {
	k := Key{TagOK: tag == v.Tag}
	if !k.TagOK {
		return k
	}
	k.LocalXOK = holdsAll(v.LocalX, lookup)
	k.LocalYOK = holdsAll(v.LocalY, lookup)
	k.Common = make([]string, len(v.CommonEq))
	k.HasCommon = make([]bool, len(v.CommonEq))
	for i, a := range v.CommonEq {
		k.Common[i], k.HasCommon[i] = lookup(a)
	}
	if raw, ok := lookup(v.Attr); ok {
		k.Val, k.HasVal = raw, true
		if v.Form == FormAttrCmp {
			if f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64); err == nil {
				k.Num, k.HasNum = f, true
			}
		}
	}
	return k
}

func holdsAll(cs []AttrConstraint, lookup func(string) (string, bool)) bool {
	for _, c := range cs {
		if !c.Holds(lookup) {
			return false
		}
	}
	return true
}

// Compare returns +1 if the answer with key a is preferred to the one
// with key b under this rule, -1 for the converse, and 0 when the rule
// does not order the pair (inapplicable, common conditions unequal, or
// form condition indifferent).
func (v *VOR) Compare(a, b *Key) int {
	if !a.TagOK || !b.TagOK {
		return 0
	}
	for i := range v.CommonEq {
		if !a.HasCommon[i] || !b.HasCommon[i] || a.Common[i] != b.Common[i] {
			return 0
		}
	}
	if v.prefers(a, b) {
		return 1
	}
	if v.prefers(b, a) {
		return -1
	}
	return 0
}

// prefers reports whether the rule, read directionally (x := a, y := b),
// derives a ≺ b.
func (v *VOR) prefers(a, b *Key) bool {
	if !a.LocalXOK || !b.LocalYOK {
		return false
	}
	switch v.Form {
	case FormEqConst:
		if !a.HasVal || !b.HasVal {
			return false
		}
		ca, okA := v.Const.Compare(a.Val)
		cb, okB := v.Const.Compare(b.Val)
		return okA && okB && ca == 0 && cb != 0
	case FormAttrCmp:
		if !a.HasNum || !b.HasNum {
			return false
		}
		switch v.Op {
		case tpq.LT:
			return a.Num < b.Num
		case tpq.GT:
			return a.Num > b.Num
		}
		return false
	case FormPrefRel:
		if !a.HasVal || !b.HasVal {
			return false
		}
		return v.Order.Prefers(a.Val, b.Val)
	}
	return false
}

// LinearCompare is a deterministic weak order extending the rule's
// partial order: whenever Compare(a, b) != 0, LinearCompare agrees, and
// pairs the rule leaves unordered are resolved by grouping answers into
// totally ordered classes. Concretely it compares, in order:
//
//   - rule applicability (answers with the rule's tag first);
//   - the common-equality attribute tuple (the rule only relates answers
//     whose tuples are equal; distinct tuples get a consistent arbitrary
//     order, missing attributes last);
//   - the form key: for x.attr = c, answers matching the constant before
//     the rest; for x.attr < y.attr (resp. >), ascending (descending)
//     attribute value with non-numeric answers last; for prefRel, the
//     PartialOrder's canonical Level (a linear extension of the stated
//     preferences), then the raw value for cross-chain determinism.
//
// Local x/y side-conditions only mask preferences (they never reverse
// one), so ignoring them here keeps the extension property. Answers in
// the same class compare 0 and fall through to the rank order's next
// component (K, S, then NodeID) exactly as genuinely tied answers do.
func (v *VOR) LinearCompare(a, b *Key) int {
	if a.TagOK != b.TagOK {
		if a.TagOK {
			return 1
		}
		return -1
	}
	if !a.TagOK {
		return 0
	}
	for i := range v.CommonEq {
		if a.HasCommon[i] != b.HasCommon[i] {
			if a.HasCommon[i] {
				return 1
			}
			return -1
		}
		if a.HasCommon[i] && a.Common[i] != b.Common[i] {
			if a.Common[i] < b.Common[i] {
				return 1
			}
			return -1
		}
	}
	switch v.Form {
	case FormEqConst:
		am := v.MatchesConst(a)
		bm := v.MatchesConst(b)
		if am != bm {
			if am {
				return 1
			}
			return -1
		}
	case FormAttrCmp:
		if a.HasNum != b.HasNum {
			if a.HasNum {
				return 1
			}
			return -1
		}
		if a.HasNum && a.Num != b.Num {
			less := a.Num < b.Num
			if v.Op == tpq.GT {
				less = !less
			}
			if less {
				return 1
			}
			return -1
		}
	case FormPrefRel:
		if a.HasVal != b.HasVal {
			if a.HasVal {
				return 1
			}
			return -1
		}
		if a.HasVal {
			la, lb := v.Order.Level(a.Val), v.Order.Level(b.Val)
			if la != lb {
				if la < lb {
					return 1
				}
				return -1
			}
			if a.Val != b.Val {
				if a.Val < b.Val {
					return 1
				}
				return -1
			}
		}
	}
	return 0
}

// MatchesConst reports whether a form-(1) rule's key holds the constant:
// the class LinearCompare ranks first.
func (v *VOR) MatchesConst(k *Key) bool {
	if !k.HasVal {
		return false
	}
	c, ok := v.Const.Compare(k.Val)
	return ok && c == 0
}

// CompAtom is one comparison atom relating the two variables of a VOR,
// exposed in the general form local(x) & local(y) & comp(x,y) -> x ≺ y
// that the ambiguity analysis of Section 5.2 works with.
type CompAtom struct {
	Attr  string
	Op    tpq.RelOp     // EQ for common equalities; LT/GT for FormAttrCmp
	Order *PartialOrder // non-nil for FormPrefRel
}

// LocalAtoms returns the full local constraint set of one side (x when
// preferred is true): declared locals plus the form's induced local
// constraints (form (1) localizes x.attr = c and y.attr != c).
func (v *VOR) LocalAtoms(preferred bool) []AttrConstraint {
	var out []AttrConstraint
	if preferred {
		out = append(out, v.LocalX...)
	} else {
		out = append(out, v.LocalY...)
	}
	if v.Form == FormEqConst {
		if preferred {
			out = append(out, AttrConstraint{Attr: v.Attr, Op: tpq.EQ, Val: v.Const})
		} else {
			out = append(out, AttrConstraint{Attr: v.Attr, Op: tpq.NE, Val: v.Const})
		}
	}
	return out
}

// CompAtoms returns the cross-variable atoms: the CommonEq equalities and
// the form's comparison (forms (2) and (3)).
func (v *VOR) CompAtoms() []CompAtom {
	var out []CompAtom
	for _, a := range v.CommonEq {
		out = append(out, CompAtom{Attr: a, Op: tpq.EQ})
	}
	switch v.Form {
	case FormAttrCmp:
		out = append(out, CompAtom{Attr: v.Attr, Op: v.Op})
	case FormPrefRel:
		out = append(out, CompAtom{Attr: v.Attr, Order: v.Order})
	}
	return out
}

func (v *VOR) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: x.tag=%s & y.tag=%s", v.Name, v.Tag, v.Tag)
	for _, a := range v.CommonEq {
		fmt.Fprintf(&sb, " & x.%s = y.%s", a, a)
	}
	for _, c := range v.LocalX {
		fmt.Fprintf(&sb, " & x%s", c)
	}
	for _, c := range v.LocalY {
		fmt.Fprintf(&sb, " & y%s", c)
	}
	switch v.Form {
	case FormEqConst:
		fmt.Fprintf(&sb, " & x.%s = %s & y.%s != %s", v.Attr, v.Const, v.Attr, v.Const)
	case FormAttrCmp:
		fmt.Fprintf(&sb, " & x.%s %s y.%s", v.Attr, v.Op, v.Attr)
	case FormPrefRel:
		fmt.Fprintf(&sb, " & %s(x.%s, y.%s)", v.Order.Name(), v.Attr, v.Attr)
	}
	sb.WriteString(" => x < y")
	return sb.String()
}

// KOR is a keyword-based ordering rule: among answers with the rule's
// tag, those containing one of the phrases are preferred. The paper notes
// a rule with several ftcontains predicates "is just a shorthand" for one
// rule per phrase; we keep the phrases together and score each match.
type KOR struct {
	Name    string
	Tag     string
	Phrases []string
	// Weight scales the rule's score contribution; the maximum
	// contribution (the kor-scorebound summand of Algorithm 3) is
	// Weight * len(Phrases) since each phrase's match score is <= 1.
	Weight float64
	// Priority orders KOR application in plans; Section 7.2 observes that
	// "applying the KOR which contributes the highest score first is
	// beneficial as it increases the pruning threshold".
	Priority int
}

// EffectiveWeight returns the per-phrase weight (default 1).
func (k *KOR) EffectiveWeight() float64 {
	if k.Weight == 0 {
		return 1
	}
	return k.Weight
}

func (k *KOR) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: x.tag=%s & y.tag=%s", k.Name, k.Tag, k.Tag)
	for _, p := range k.Phrases {
		fmt.Fprintf(&sb, " & ftcontains(x, %q)", p)
	}
	sb.WriteString(" => x < y")
	return sb.String()
}

// SortVORsByPriority returns the profile's VORs in priority order
// (priority 1 first; unprioritized rules last, in declaration order).
func (p *Profile) SortVORsByPriority() []*VOR {
	out := append([]*VOR(nil), p.VORs...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Priority, out[j].Priority
		if pi == 0 {
			pi = int(^uint(0) >> 1)
		}
		if pj == 0 {
			pj = int(^uint(0) >> 1)
		}
		return pi < pj
	})
	return out
}

// SortKORsByPriority returns the KORs in plan-application order.
func (p *Profile) SortKORsByPriority() []*KOR {
	out := append([]*KOR(nil), p.KORs...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Priority, out[j].Priority
		if pi == 0 {
			pi = int(^uint(0) >> 1)
		}
		if pj == 0 {
			pj = int(^uint(0) >> 1)
		}
		return pi < pj
	})
	return out
}

// VORPriorityOrder returns indices into p.VORs in rule-application order
// (ascending priority, declaration order for ties and for unprioritized
// rules). Callers on hot comparison paths compute it once and reuse it.
func (p *Profile) VORPriorityOrder() []int {
	rules := p.SortVORsByPriority()
	out := make([]int, len(rules))
	for i, v := range rules {
		out[i] = p.vorIndex(v)
	}
	return out
}

func (p *Profile) vorIndex(v *VOR) int {
	for i, w := range p.VORs {
		if w == v {
			return i
		}
	}
	return -1
}
