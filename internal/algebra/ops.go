package algebra

import (
	"slices"
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

// Operator is a pull-based (pipelined) plan operator that moves answers
// a batch at a time. Operators only ever feed forward — each one's state
// depends on nothing but the sequence of answers it has seen — so a
// sequential chain does the same work in the same order, and reports
// the same counters, at every batch size (DESIGN.md §6).
type Operator interface {
	// Open prepares the operator (and its inputs) for iteration.
	Open()
	// NextBatch fills a prefix of dst (len(dst) >= 1) with the next
	// answers, in stream order, and returns how many; 0 is end of
	// stream. An operator pulls its input into dst and works on it in
	// place, so one buffer serves a whole chain.
	NextBatch(dst []Answer) int
	// Stats returns the operator's counters for experiment reporting.
	Stats() OpStats
}

// Run opens the chain ending in root and drains it through one pooled
// buffer of batch answers. What the chain computed stays in its
// operators (the final prune's TopK, every Stats).
func Run(root Operator, batch int) {
	buf := slices.Grow(getAnswerBuf(), batch)[:batch]
	defer putAnswerBuf(buf)
	root.Open()
	for root.NextBatch(buf) > 0 {
	}
}

// OpStats counts an operator's traffic. Name is the operator's display
// name, which only Stats readers want: operators build it on the first
// Stats call, not per Open.
type OpStats struct {
	Name   string
	In     int // answers consumed
	Out    int // answers emitted
	Pruned int // answers dropped
	// WallNS is cumulative wall-clock nanoseconds spent inside this
	// operator's Open and NextBatch calls, *inclusive* of its upstream
	// chain (a pull recurses into its input). Self time is
	// WallNS minus the input operator's WallNS. Zero unless the chain
	// was built with timing enabled (see Timer / plan.Options).
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
	s.stats = OpStats{}
}

func (s *ListScanOp) NextBatch(dst []Answer) int {
	if s.Cancel.Stop() {
		return 0
	}
	n := min(len(dst), len(s.IDs)-s.pos)
	for i, e := range s.IDs[s.pos : s.pos+n] {
		dst[i] = Answer{Node: e}
	}
	s.pos += n
	s.stats.In += n
	s.stats.Out += n
	return n
}

func (s *ListScanOp) Stats() OpStats {
	st := s.stats
	st.Name = s.Name
	if st.Name == "" {
		st.Name = "listscan"
	}
	return st
}

// filterBatches is the pull loop every filtering operator shares: pull
// a batch, keep the answers keep accepts (compacting dst in place), and
// pull again while a whole batch was dropped, so 0 still means end of
// stream.
func filterBatches(in Operator, dst []Answer, stats *OpStats, keep func(a *Answer) bool) int {
	for {
		n := in.NextBatch(dst)
		if n == 0 {
			return 0
		}
		kept := 0
		for i := range dst[:n] {
			if keep(&dst[i]) {
				dst[kept] = dst[i]
				kept++
			}
		}
		stats.In += n
		stats.Out += kept
		stats.Pruned += n - kept
		if kept > 0 {
			return kept
		}
	}
}

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

func (o *UnitFilterOp) NextBatch(dst []Answer) int {
	return filterBatches(o.In, dst, &o.stats, func(a *Answer) bool {
		for _, u := range o.Units {
			if sat, _ := o.Matcher.EvalUnit(u, a.Node); !sat {
				return false
			}
		}
		return true
	})
}

func (o *UnitFilterOp) Stats() OpStats { return o.stats }

// RequiredOp is the structural semijoin stage: it keeps candidates that
// satisfy the upward skeleton and every required non-FT unit. Structural
// joins are not score contributors (Section 6.2).
type RequiredOp struct {
	In      Operator
	Matcher *Matcher

	stats OpStats
}

func (o *RequiredOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "required"}
}

func (o *RequiredOp) NextBatch(dst []Answer) int {
	return filterBatches(o.In, dst, &o.stats, func(a *Answer) bool {
		return o.Matcher.MatchRequired(a.Node)
	})
}

func (o *RequiredOp) Stats() OpStats { return o.stats }

// FTOp enforces one full-text unit: a keyword join of the batch against
// the unit's resolved phrase list. Required units filter and contribute
// score; optional units (outer-joins from encoded scoping rules) only
// contribute score.
type FTOp struct {
	In      Operator
	Matcher *Matcher
	Unit    int

	stats OpStats
}

func (o *FTOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: o.stats.Name}
}

func (o *FTOp) NextBatch(dst []Answer) int {
	optional := o.Matcher.Units()[o.Unit].Optional
	return filterBatches(o.In, dst, &o.stats, func(a *Answer) bool {
		sat, score := o.Matcher.EvalUnit(o.Unit, a.Node)
		a.S += score
		return sat || optional
	})
}

func (o *FTOp) Stats() OpStats {
	if o.stats.Name == "" {
		u := o.Matcher.Units()[o.Unit]
		o.stats.Name = "ftjoin(" + u.F.Phrase + ")"
		if u.Optional {
			o.stats.Name = "ftouterjoin(" + u.F.Phrase + ")"
		}
	}
	return o.stats
}

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

func (o *BonusOp) NextBatch(dst []Answer) int {
	n := o.In.NextBatch(dst)
	for i := range dst[:n] {
		for _, u := range o.Units {
			if sat, score := o.Matcher.EvalUnit(u, dst[i].Node); sat {
				dst[i].S += score
			}
		}
	}
	o.stats.In += n
	o.stats.Out += n
	return n
}

func (o *BonusOp) Stats() OpStats { return o.stats }

// VOROp is Fig. 3's vor operator: it augments answers with their OR
// values (the per-rule keys used by ≺_V comparisons downstream). It works
// a batch column by column: for each attribute the rules read it first
// finds, for every answer, the element holding x.attr — through the tag
// index with a forward cursor, not a subtree walk — then reads the
// values, then builds the keys into one arena slice per batch. Each pass
// is a short loop of independent iterations, so the cache misses of one
// answer overlap the next's instead of queueing behind a key build.
type VOROp struct {
	In   Operator
	Ix   *index.Index
	Prof *profile.Profile

	cols   []attrColumn                // one per attribute name the rules read
	row    int                         // the batch row lookup currently answers for
	lookup func(string) (string, bool) // x.attr of row; built once, not per answer
	stats  OpStats
}

// attrColumn is x.attr for every answer of the current batch, beside
// the attribute's tag index list and the cursor of the last probe.
type attrColumn struct {
	name  string
	elems []xmldoc.NodeID
	cur   int
	rows  []attrValue
}

type attrValue struct {
	at  xmldoc.NodeID // the element holding the value, or InvalidNode
	val string
	has bool
}

// NewVOROp returns the vor operator of prof (which has at least one
// VOR) over in.
func NewVOROp(in Operator, ix *index.Index, prof *profile.Profile) *VOROp {
	o := &VOROp{In: in, Ix: ix, Prof: prof}
	add := func(attr string) {
		for _, c := range o.cols {
			if c.name == attr {
				return
			}
		}
		o.cols = append(o.cols, attrColumn{name: attr, elems: ix.Elements(attr)})
	}
	for _, v := range prof.VORs {
		add(v.Attr)
		for _, a := range v.CommonEq {
			add(a)
		}
		for _, c := range v.LocalX {
			add(c.Attr)
		}
		for _, c := range v.LocalY {
			add(c.Attr)
		}
	}
	o.lookup = func(attr string) (string, bool) {
		for i := range o.cols {
			if c := &o.cols[i]; c.name == attr {
				return c.rows[o.row].val, c.rows[o.row].has
			}
		}
		return "", false
	}
	return o
}

func (o *VOROp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: "vor"}
}

func (o *VOROp) NextBatch(dst []Answer) int {
	n := o.In.NextBatch(dst)
	o.stats.In += n
	o.stats.Out += n
	if n == 0 {
		return 0
	}
	doc, nv := o.Ix.Document(), len(o.Prof.VORs)
	for i := range o.cols {
		o.cols[i].rows = slices.Grow(o.cols[i].rows[:0], len(dst))[:n]
		o.cols[i].resolve(doc, dst[:n])
	}
	arena := make([]profile.Key, n*nv)
	for i := range dst[:n] {
		keys := arena[i*nv : (i+1)*nv : (i+1)*nv]
		o.row = i
		tag := doc.Tag(dst[i].Node)
		for j, v := range o.Prof.VORs {
			keys[j] = v.KeyFor(tag, o.lookup)
		}
		dst[i].VKeys = keys
	}
	return n
}

func (o *VOROp) Stats() OpStats { return o.stats }

// resolve fills the column for a batch. It is Document.DeepValue
// answered from the tag index, in the same resolution order: the XML
// attribute, else the first child tagged attr, else the first descendant
// tagged attr. The elements tagged attr inside e's region are a run of
// the tag's list, found from the column's cursor, so locating the value
// is a parent compare per run member instead of a walk over e's children
// and then its subtree.
func (c *attrColumn) resolve(doc *xmldoc.Document, batch []Answer) {
rows:
	for i := range batch {
		e, row := batch[i].Node, &c.rows[i]
		n := doc.Node(e)
		*row = attrValue{at: xmldoc.InvalidNode}
		for _, a := range n.Attrs {
			if a.Name == c.name {
				row.val, row.has = a.Value, true
				continue rows
			}
		}
		c.cur = index.SeekGE(c.elems, c.cur, e+1)
		for _, d := range c.elems[c.cur:] {
			if int32(d) > n.End {
				break
			}
			if doc.Parent(d) == e {
				row.at = d
				break
			}
			if row.at == xmldoc.InvalidNode {
				row.at = d
			}
		}
	}
	for i := range c.rows {
		if row := &c.rows[i]; row.at != xmldoc.InvalidNode {
			row.val, row.has = doc.TextContent(row.at), true
		}
	}
}

// KOROp is Fig. 3's kor operator: it adds one keyword-based OR's score
// contribution to matching answers (implemented as an outer-join of the
// batch against the rule's resolved phrase lists — every answer passes,
// matches gain K).
type KOROp struct {
	In  Operator
	Ix  *index.Index
	Kor *profile.KOR

	lists  []index.PhraseList // one per Kor.Phrases entry; none when no input answer can match
	anyTag bool               // input tags vary: check each answer's against Kor.Tag
	stats  OpStats
}

// NewKOROp returns the kor operator of one rule over in, with the
// rule's (tag, phrase) lists resolved. tag is the one tag every input
// answer carries — the distinguished node's, when it is a fixed name —
// so the rule's tag test is decided here, not by loading a node per
// answer; "" means the tags vary.
func NewKOROp(in Operator, ix *index.Index, kor *profile.KOR, tag string) *KOROp {
	o := &KOROp{In: in, Ix: ix, Kor: kor, anyTag: tag == ""}
	if o.anyTag || tag == kor.Tag {
		o.lists = make([]index.PhraseList, len(kor.Phrases))
		for i, p := range kor.Phrases {
			o.lists[i] = ix.Phrase(kor.Tag, p)
		}
	}
	return o
}

func (o *KOROp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: o.stats.Name}
}

func (o *KOROp) NextBatch(dst []Answer) int {
	n := o.In.NextBatch(dst)
	o.stats.In += n
	o.stats.Out += n
	doc, w := o.Ix.Document(), o.Kor.EffectiveWeight()
	for i := range dst[:n] {
		if o.anyTag && doc.Tag(dst[i].Node) != o.Kor.Tag {
			continue
		}
		total := 0.0
		for j := range o.lists {
			total += w * o.lists[j].Score(dst[i].Node)
		}
		dst[i].K += total
	}
	return n
}

func (o *KOROp) Stats() OpStats {
	if o.stats.Name == "" {
		o.stats.Name = "kor(" + o.Kor.Name + ")"
	}
	return o.stats
}

// SortOp is Fig. 3's parametric sort: it materializes its input and emits
// it ordered by the Ranker in the given mode ("the sort operator needs to
// sort an input list parametrically").
type SortOp struct {
	In     Operator
	Ranker *Ranker
	Mode   Mode
	// Batch is how many answers one pull of the input moves while the
	// sort materializes it; the plan passes its drain capacity.
	Batch int

	buf   []Answer
	pos   int
	stats OpStats
}

func (o *SortOp) Open() {
	o.In.Open()
	o.stats = OpStats{Name: o.stats.Name}
	if o.buf == nil {
		o.buf = getAnswerBuf()
	}
	o.buf = o.buf[:0]
	batch := max(o.Batch, 1)
	for {
		o.buf = slices.Grow(o.buf, batch)
		n := o.In.NextBatch(o.buf[len(o.buf) : len(o.buf)+batch])
		if n == 0 {
			break
		}
		o.buf = o.buf[:len(o.buf)+n]
	}
	o.stats.In = len(o.buf)
	o.Ranker.SortBestFirst(o.buf, o.Mode)
	o.pos = 0
}

func (o *SortOp) NextBatch(dst []Answer) int {
	n := copy(dst, o.buf[o.pos:])
	o.pos += n
	o.stats.Out += n
	return n
}

func (o *SortOp) Stats() OpStats {
	if o.stats.Name == "" {
		o.stats.Name = "sort(" + o.Mode.String() + ")"
	}
	return o.stats
}

// ReleaseScratch returns the materialization buffer to the shared pool;
// the next Open re-acquires. Answers already pulled were copied out by
// value, so nothing the consumer holds is invalidated.
func (o *SortOp) ReleaseScratch() {
	if o.buf == nil {
		return
	}
	putAnswerBuf(o.buf)
	o.buf = nil
	o.pos = 0
}
