package algebra

import (
	"sort"
	"strings"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/xmldoc"
)

// Answer is one distinguished-node candidate flowing through a plan,
// carrying the three ranking components of Section 3.3: the query score
// S, the keyword-OR score K, and the per-VOR keys that define the V
// preference.
type Answer struct {
	Node  xmldoc.NodeID
	S     float64
	K     float64
	VKeys []profile.Key
}

// Operator is a pull-based (pipelined) plan operator.
type Operator interface {
	// Open prepares the operator (and its inputs) for iteration.
	Open()
	// Next produces the next answer; ok is false at end of stream.
	Next() (Answer, bool)
	// Stats returns the operator's counters for experiment reporting.
	Stats() OpStats
}

// OpStats counts an operator's traffic.
type OpStats struct {
	Name   string
	In     int // answers consumed
	Out    int // answers emitted
	Pruned int // answers dropped
	// WallNS is cumulative wall-clock nanoseconds spent inside this
	// operator's Open and Next calls, *inclusive* of its upstream chain
	// (a pull-based Next recurses into its input). Self time is
	// WallNS minus the input operator's WallNS. Zero unless the chain
	// was built with timing enabled (see WithTiming / plan.Options).
	WallNS int64
}

// Kind returns the operator's stable kind — its name up to the first
// parenthesis ("ftjoin(best bid)" → "ftjoin"). Kinds form a small,
// compile-time-enumerable set, which makes them safe metric label
// values where full names (carrying tags and phrases) are not.
func (s OpStats) Kind() string {
	if i := strings.IndexByte(s.Name, '('); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// ListScanOp is the source operator of every plan: it emits a sorted
// candidate list in document order. The scan access path hands it the
// distinguished tag's index list (the index-backed source of Fig. 4's
// plans), the twigjoin access path the join's output, and a parallel
// Execute one partition of either.
type ListScanOp struct {
	Name string
	IDs  []xmldoc.NodeID
	// Cancel, when non-nil, lets a context deadline or client
	// disconnect end the scan early (nil is never checked).
	Cancel *CancelCheck

	pos   int
	stats OpStats
}

func (s *ListScanOp) Open() {
	s.pos = 0
	name := s.Name
	if name == "" {
		name = "listscan"
	}
	s.stats = OpStats{Name: name}
}

func (s *ListScanOp) Next() (Answer, bool) {
	if s.pos >= len(s.IDs) || s.Cancel.Stop() {
		return Answer{}, false
	}
	e := s.IDs[s.pos]
	s.pos++
	s.stats.In++
	s.stats.Out++
	return Answer{Node: e}, true
}

func (s *ListScanOp) Stats() OpStats { return s.stats }

// UnitFilterOp drops answers failing any of the given (required) units;
// it is the constraint-only residue of RequiredOp in twig plans.
type UnitFilterOp struct {
	In      Operator
	Matcher *Matcher
	Units   []int

	stats OpStats
}

func (o *UnitFilterOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "unitfilter"}
}

func (o *UnitFilterOp) Next() (Answer, bool) {
	for {
		a, ok := o.In.Next()
		if !ok {
			return Answer{}, false
		}
		o.stats.In++
		keep := true
		for _, u := range o.Units {
			if sat, _ := o.Matcher.EvalUnit(u, a.Node); !sat {
				keep = false
				break
			}
		}
		if !keep {
			o.stats.Pruned++
			continue
		}
		o.stats.Out++
		return a, true
	}
}

func (o *UnitFilterOp) Stats() OpStats { return o.stats }

// RequiredOp is the structural semijoin stage: it keeps candidates that
// satisfy the upward skeleton and every required non-FT unit. Structural
// joins are not score contributors (Section 6.2).
type RequiredOp struct {
	In      Operator
	Matcher *Matcher
	// Cancel, when non-nil, aborts the per-candidate match loop early:
	// structural matching is the dominant per-candidate cost, so the
	// checkpoint here bounds abort latency even when the source's
	// stride has not elapsed yet.
	Cancel *CancelCheck

	stats OpStats
}

func (o *RequiredOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "required"}
}

func (o *RequiredOp) Next() (Answer, bool) {
	for {
		a, ok := o.In.Next()
		if !ok || o.Cancel.Stop() {
			return Answer{}, false
		}
		o.stats.In++
		if !o.Matcher.MatchRequired(a.Node) {
			o.stats.Pruned++
			continue
		}
		o.stats.Out++
		return a, true
	}
}

func (o *RequiredOp) Stats() OpStats { return o.stats }

// FTOp enforces one full-text unit: a keyword join. Required units
// filter and contribute score; optional units (outer-joins from encoded
// scoping rules) only contribute score.
type FTOp struct {
	In      Operator
	Matcher *Matcher
	Unit    int

	stats OpStats
}

func (o *FTOp) Open() {
	o.In.Open()
	u := o.Matcher.Units()[o.Unit]
	name := "ftjoin(" + u.F.Phrase + ")"
	if u.Optional {
		name = "ftouterjoin(" + u.F.Phrase + ")"
	}
	o.stats = OpStats{Name: name}
}

func (o *FTOp) Next() (Answer, bool) {
	u := o.Matcher.Units()[o.Unit]
	for {
		a, ok := o.In.Next()
		if !ok {
			return Answer{}, false
		}
		o.stats.In++
		sat, score := o.Matcher.EvalUnit(o.Unit, a.Node)
		if !sat && !u.Optional {
			o.stats.Pruned++
			continue
		}
		a.S += score
		o.stats.Out++
		return a, true
	}
}

func (o *FTOp) Stats() OpStats { return o.stats }

// MaxScore returns the operator's maximal S contribution, a summand of
// query-scorebound.
func (o *FTOp) MaxScore() float64 { return o.Matcher.MaxUnitScore(o.Unit) }

// BonusOp scores the optional non-FT units (existence/constraint bonuses
// of encoded scoping rules) in one pass.
type BonusOp struct {
	In      Operator
	Matcher *Matcher
	Units   []int

	stats OpStats
}

func (o *BonusOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "bonus"}
}

func (o *BonusOp) Next() (Answer, bool) {
	a, ok := o.In.Next()
	if !ok {
		return Answer{}, false
	}
	o.stats.In++
	for _, u := range o.Units {
		if sat, score := o.Matcher.EvalUnit(u, a.Node); sat {
			a.S += score
		}
	}
	o.stats.Out++
	return a, true
}

func (o *BonusOp) Stats() OpStats { return o.stats }

// MaxScore returns the maximal total bonus.
func (o *BonusOp) MaxScore() float64 {
	t := 0.0
	for _, u := range o.Units {
		t += o.Matcher.MaxUnitScore(u)
	}
	return t
}

// VOROp is Fig. 3's vor operator: it augments answers with their OR
// values (the per-rule keys used by ≺_V comparisons downstream).
type VOROp struct {
	In   Operator
	Doc  *xmldoc.Document
	Prof *profile.Profile

	stats OpStats
}

func (o *VOROp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "vor"}
}

func (o *VOROp) Next() (Answer, bool) {
	a, ok := o.In.Next()
	if !ok {
		return Answer{}, false
	}
	o.stats.In++
	a.VKeys = VORKeysFor(o.Doc, o.Prof, a.Node)
	o.stats.Out++
	return a, true
}

func (o *VOROp) Stats() OpStats { return o.stats }

// VORKeysFor computes the per-VOR keys of an element.
func VORKeysFor(doc *xmldoc.Document, prof *profile.Profile, e xmldoc.NodeID) []profile.Key {
	if prof == nil || len(prof.VORs) == 0 {
		return nil
	}
	tag := doc.Tag(e)
	lookup := func(attr string) (string, bool) { return doc.DeepValue(e, attr) }
	keys := make([]profile.Key, len(prof.VORs))
	for i, v := range prof.VORs {
		keys[i] = v.KeyFor(tag, lookup)
	}
	return keys
}

// KOROp is Fig. 3's kor operator: it adds one keyword-based OR's score
// contribution to matching answers (implemented as an outer-join — every
// answer passes, matches gain K).
type KOROp struct {
	In  Operator
	Ix  *index.Index
	Kor *profile.KOR

	stats OpStats
}

func (o *KOROp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "kor(" + o.Kor.Name + ")"}
}

func (o *KOROp) Next() (Answer, bool) {
	a, ok := o.In.Next()
	if !ok {
		return Answer{}, false
	}
	o.stats.In++
	a.K += KORContribution(o.Ix, o.Kor, a.Node)
	o.stats.Out++
	return a, true
}

func (o *KOROp) Stats() OpStats { return o.stats }

// KORContribution computes one KOR's K increment for an element.
func KORContribution(ix *index.Index, kor *profile.KOR, e xmldoc.NodeID) float64 {
	if ix.Document().Tag(e) != kor.Tag {
		return 0
	}
	w := kor.EffectiveWeight()
	total := 0.0
	for _, p := range kor.Phrases {
		total += w * ix.Score(e, p)
	}
	return total
}

// SortOp is Fig. 3's parametric sort: it materializes its input and emits
// it ordered by the Ranker in the given mode ("the sort operator needs to
// sort an input list parametrically").
type SortOp struct {
	In     Operator
	Ranker *Ranker
	Mode   Mode

	buf   []Answer
	pos   int
	stats OpStats
}

func (o *SortOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "sort(" + o.Mode.String() + ")"}
	if o.buf == nil {
		o.buf = getAnswerBuf()
	}
	o.buf = o.buf[:0]
	for {
		a, ok := o.In.Next()
		if !ok {
			break
		}
		o.stats.In++
		o.buf = append(o.buf, a)
	}
	r := o.Ranker
	mode := o.Mode
	sort.SliceStable(o.buf, func(i, j int) bool {
		c := r.Compare(&o.buf[i], &o.buf[j], mode)
		if c != 0 {
			return c > 0
		}
		return o.buf[i].Node < o.buf[j].Node
	})
	o.pos = 0
}

func (o *SortOp) Next() (Answer, bool) {
	if o.pos >= len(o.buf) {
		return Answer{}, false
	}
	a := o.buf[o.pos]
	o.pos++
	o.stats.Out++
	return a, true
}

func (o *SortOp) Stats() OpStats { return o.stats }

// ReleaseScratch returns the materialization buffer to the shared pool;
// the next Open re-acquires. Answers already pulled by Next were copied
// out by value, so nothing the consumer holds is invalidated.
func (o *SortOp) ReleaseScratch() {
	if o.buf == nil {
		return
	}
	putAnswerBuf(o.buf)
	o.buf = nil
	o.pos = 0
}
