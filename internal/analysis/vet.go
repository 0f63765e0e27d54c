// The vet suite: profile and (profile, query) static checks producing
// structured Diagnostics. VetProfile covers query-independent checks,
// VetQuery the query-scoped ones; Vet merges both. Every emitted list
// obeys the determinism contract of SortDiagnostics.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/profile"
	"repro/internal/tpq"
)

// Vet runs the full suite. q may be nil, in which case only the
// profile-scoped checks run (query-scoped conflict analysis then relies
// on the per-rule trigger probes of VetProfile). It computes each
// Section 5 analysis once and hands the reports to VetProfile and
// VetQuery, the way the engine's analysis verdicts do.
func Vet(p *profile.Profile, q *tpq.Query) []Diagnostic {
	ds := VetProfile(p, DetectAmbiguityPrioritized(p.VORs))
	if q != nil {
		rep, err := AnalyzeSRs(p.SRs, q)
		var flock []*tpq.Query
		if err == nil {
			flock, _ = rep.Walk(p.SRs, q, false)
		}
		ds = append(ds, VetQuery(p, rep, flock)...)
	}
	SortDiagnostics(ds)
	return ds
}

// VetProfile runs the query-independent checks: VOR ambiguity (the
// Section 5.2 gate, plus the resolved-by-priorities advisory), dead and
// redundant VORs, KOR phrase hygiene, exact-duplicate rule bodies, and
// the per-SR trigger probes (unsatisfiable conditions, dead actions,
// shadowing, reachable conflict cycles). amb is
// DetectAmbiguityPrioritized(p.VORs).
func VetProfile(p *profile.Profile, amb AmbiguityReport) []Diagnostic {
	var ds []Diagnostic
	ds = append(ds, vetAmbiguity(p, amb)...)
	ds = append(ds, vetVORDead(p)...)
	ds = append(ds, vetVORRedundant(p)...)
	ds = append(ds, vetKORPhrases(p)...)
	ds = append(ds, vetDuplicateBodies(p)...)
	ds = append(ds, vetSRProbes(p)...)
	SortDiagnostics(ds)
	return ds
}

// VetQuery runs the query-scoped checks on the Section 5.1 analysis of
// p's scoping rules against a query: the conflict-cycle gate,
// unsatisfiable constraint conjunctions in the rewritten flock, and
// ordering rules whose tag no flock answer can carry. rep is
// AnalyzeSRs's report (nil or Cyclic when it failed) and flock the
// literal flock rep.Walk yields. The returned list holds only
// query-scoped findings; use Vet to merge with VetProfile.
func VetQuery(p *profile.Profile, rep *ConflictReport, flock []*tpq.Query) []Diagnostic {
	if rep == nil || rep.Cyclic {
		return []Diagnostic{conflictCycleDiagnostic(p, rep)}
	}
	ds := vetFlockSatisfiable(flock)
	ds = append(ds, vetOrderingTags(p, flock)...)
	SortDiagnostics(ds)
	return ds
}

// --- VOR checks ---

// vetAmbiguity maps the Section 5.2 analysis onto diagnostics: an
// alternating cycle that survives priority resolution (prio) is an
// error (Search rejects the profile); one that priorities break is an
// info.
func vetAmbiguity(p *profile.Profile, prio AmbiguityReport) []Diagnostic {
	if prio.Ambiguous {
		return []Diagnostic{{
			ID:       DiagVORAmbiguous,
			Severity: SevError,
			Message: "value-based ordering rules are ambiguous (Lemma 5.1): " +
				prio.Suggestion,
			Rules:   vorRefsFromWalk(p, prio.Cycle),
			Witness: &Witness{Kind: WitnessAlternatingCycle, Path: prio.Cycle},
		}}
	}
	if raw := DetectAmbiguity(p.VORs); raw.Ambiguous {
		return []Diagnostic{{
			ID:       DiagVORAmbiguousResolved,
			Severity: SevInfo,
			Message:  "ordering rules contain an alternating cycle that the assigned priorities break",
			Rules:    vorRefsFromWalk(p, raw.Cycle),
			Witness:  &Witness{Kind: WitnessAlternatingCycle, Path: raw.Cycle},
		}}
	}
	return nil
}

// vorRefsFromWalk recovers the rule references behind an alternating
// variable walk ("w1.x", "w1.y", …), ordered by declaration index.
func vorRefsFromWalk(p *profile.Profile, walk []string) []RuleRef {
	names := map[string]bool{}
	for _, v := range walk {
		if i := strings.LastIndexByte(v, '.'); i > 0 {
			names[v[:i]] = true
		}
	}
	var refs []RuleRef
	for i, v := range p.VORs {
		if names[v.Name] {
			refs = append(refs, RuleRef{Kind: "vor", Index: i, Name: v.Name})
		}
	}
	return refs
}

// vetVORDead flags rules whose local constraint closure on either side
// is unsatisfiable: no element can ever play that side, so the rule
// orders nothing.
func vetVORDead(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	for i, v := range p.VORs {
		for _, preferred := range []bool{true, false} {
			cs := LocalClosure(v, preferred)
			if ConsistentConstraints(cs) {
				continue
			}
			side := "y"
			if preferred {
				side = "x"
			}
			ds = append(ds, Diagnostic{
				ID:       DiagVORDead,
				Severity: SevWarn,
				Message: fmt.Sprintf(
					"vor %s can never order any pair: local*(%s) is unsatisfiable",
					v.Name, side),
				Rules:   []RuleRef{{Kind: "vor", Index: i, Name: v.Name}},
				Witness: contradictionWitness(cs),
			})
			break // one side suffices to kill the rule
		}
	}
	return ds
}

// vetVORRedundant flags a rule subsumed by another with the same
// ordering core (tag, form, attribute, constant/operator/order, common
// equalities) and a subset of its local conditions: whenever the more
// constrained rule orders a pair, the weaker one already does, the same
// way.
func vetVORRedundant(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	for i, a := range p.VORs {
		for j, b := range p.VORs {
			if i == j || vorCore(a) != vorCore(b) {
				continue
			}
			if !constraintSubset(b.LocalX, a.LocalX) || !constraintSubset(b.LocalY, a.LocalY) {
				continue
			}
			// a's locals ⊇ b's locals: a is subsumed by b. When the two
			// are identical, report only the later declaration.
			identical := constraintSubset(a.LocalX, b.LocalX) && constraintSubset(a.LocalY, b.LocalY)
			if identical && i < j {
				continue
			}
			ds = append(ds, Diagnostic{
				ID:       DiagVORRedundant,
				Severity: SevWarn,
				Message: fmt.Sprintf(
					"vor %s is subsumed by %s (same ordering core, weaker local conditions)",
					a.Name, b.Name),
				Rules: []RuleRef{
					{Kind: "vor", Index: i, Name: a.Name},
					{Kind: "vor", Index: j, Name: b.Name},
				},
				Witness: &Witness{Kind: WitnessSubsumedBy, Path: []string{b.Name}},
			})
			break
		}
	}
	return ds
}

// vorCore is the ordering-relevant signature shared by subsumption
// candidates: everything except the local side conditions. Priority is
// part of the core — under the prioritized semantics a weaker rule at a
// different priority still changes the ranking.
func vorCore(v *profile.VOR) string {
	common := append([]string(nil), v.CommonEq...)
	sort.Strings(common)
	core := fmt.Sprintf("%s|%d|%s|%d|%s", v.Tag, v.Form, v.Attr, v.Priority, strings.Join(common, ","))
	switch v.Form {
	case profile.FormEqConst:
		core += "|" + v.Const.String()
	case profile.FormAttrCmp:
		core += "|" + v.Op.String()
	case profile.FormPrefRel:
		if v.Order != nil {
			core += "|" + v.Order.Name()
		}
	}
	return core
}

// constraintSubset reports whether every constraint of sub appears in
// super (syntactic comparison on the canonical string form).
func constraintSubset(sub, super []profile.AttrConstraint) bool {
	have := make(map[string]bool, len(super))
	for _, c := range super {
		have[c.String()] = true
	}
	for _, c := range sub {
		if !have[c.String()] {
			return false
		}
	}
	return true
}

// --- KOR checks ---

func vetKORPhrases(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	for i, k := range p.KORs {
		seen := map[string]bool{}
		for _, ph := range k.Phrases {
			if seen[ph] {
				ds = append(ds, Diagnostic{
					ID:       DiagKORDupPhrase,
					Severity: SevWarn,
					Message: fmt.Sprintf(
						"kor %s lists phrase %q twice; its score contribution is double counted",
						k.Name, ph),
					Rules:   []RuleRef{{Kind: "kor", Index: i, Name: k.Name}},
					Witness: &Witness{Kind: WitnessContradiction, Path: []string{ph, ph}},
				})
				break
			}
			seen[ph] = true
		}
	}
	return ds
}

// --- duplicate rule bodies ---

// vetDuplicateBodies flags rules of the same kind whose bodies (priority
// and weight included) are identical under different names. ParseProfile
// already rejects duplicate *names* (P001); this catches the same rule
// smuggled in twice, which double-applies its effect.
func vetDuplicateBodies(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	report := func(kind string, idx int, name, dupOf string, dupIdx int) {
		ds = append(ds, Diagnostic{
			ID:       DiagDuplicateRule,
			Severity: SevWarn,
			Message: fmt.Sprintf(
				"%s %s duplicates %s %s under a different name", kind, name, kind, dupOf),
			Rules: []RuleRef{
				{Kind: kind, Index: idx, Name: name},
				{Kind: kind, Index: dupIdx, Name: dupOf},
			},
			Witness: &Witness{Kind: WitnessSubsumedBy, Path: []string{dupOf}},
		})
	}
	seenSR := map[string]int{}
	for i, sr := range p.SRs {
		body := srBody(sr)
		if j, ok := seenSR[body]; ok {
			report("sr", i, sr.Name, p.SRs[j].Name, j)
			continue
		}
		seenSR[body] = i
	}
	seenVOR := map[string]int{}
	for i, v := range p.VORs {
		body := ruleBody(v.Name, v.String()) + fmt.Sprintf("|prio=%d", v.Priority)
		if j, ok := seenVOR[body]; ok {
			report("vor", i, v.Name, p.VORs[j].Name, j)
			continue
		}
		seenVOR[body] = i
	}
	seenKOR := map[string]int{}
	for i, k := range p.KORs {
		body := ruleBody(k.Name, k.String()) + fmt.Sprintf("|prio=%d|w=%g", k.Priority, k.Weight)
		if j, ok := seenKOR[body]; ok {
			report("kor", i, k.Name, p.KORs[j].Name, j)
			continue
		}
		seenKOR[body] = i
	}
	return ds
}

func srBody(sr *profile.SR) string {
	return ruleBody(sr.Name, sr.String()) + fmt.Sprintf("|prio=%d|w=%g", sr.Priority, sr.Weight)
}

// ruleBody strips the leading "name: " prefix the String forms share.
func ruleBody(name, s string) string {
	return strings.TrimPrefix(s, name+": ")
}

// --- SR probes (profile-scoped) ---

// vetSRProbes analyses each scoping rule against its own trigger query
// (its condition pattern — the most specific query the rule applies
// to): unsatisfiable conditions, actions that cannot be carried out
// even on the trigger, rules pre-empted by the application order, and
// conflict cycles reachable from a trigger.
func vetSRProbes(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	cycleSeen := false
	for i, sr := range p.SRs {
		cond, err := sr.CondQuery()
		if err != nil {
			continue // ParseProfile rejects these; defensive only
		}
		if n, pair, unsat := unsatQueryConstraints(cond, false); unsat {
			ds = append(ds, Diagnostic{
				ID:       DiagSRUnsatCond,
				Severity: SevWarn,
				Message: fmt.Sprintf(
					"sr %s can never trigger: condition constraints on %s are unsatisfiable",
					sr.Name, nodeLabel(cond, n)),
				Rules:   []RuleRef{{Kind: "sr", Index: i, Name: sr.Name}},
				Witness: &Witness{Kind: WitnessContradiction, Path: pair},
			})
			continue
		}
		if _, ok := sr.Apply(cond); !ok {
			ds = append(ds, Diagnostic{
				ID:       DiagSRDeadAction,
				Severity: SevWarn,
				Message: fmt.Sprintf(
					"sr %s's action does not apply to its own trigger query (dead rule?)",
					sr.Name),
				Rules: []RuleRef{{Kind: "sr", Index: i, Name: sr.Name}},
			})
			continue
		}
		rep, err := AnalyzeSRs(p.SRs, cond)
		if err != nil {
			if !cycleSeen {
				cycleSeen = true
				ds = append(ds, Diagnostic{
					ID:       DiagSRProbeCycle,
					Severity: SevWarn,
					Message: fmt.Sprintf(
						"a conflict cycle is reachable from sr %s's own trigger; queries matching it will be rejected unless priorities are assigned",
						sr.Name),
					Rules:   srRefsByName(p, rep.Cycle),
					Witness: &Witness{Kind: WitnessConflictCycle, Path: rep.Cycle},
				})
			}
			continue
		}
		// Shadowing: walk the application order up to the rule's turn on
		// its trigger and see whether it fires there.
		turn := slices.Index(rep.Order, i)
		if turn < 0 {
			turn = len(rep.Order) // never applicable: shadowed by all that fired
		}
		flock, before := walk(p.SRs, rep.Order[:turn], cond, false)
		fired := false
		if turn < len(rep.Order) {
			_, fired = sr.Apply(flock[len(flock)-1])
		}
		if !fired {
			ds = append(ds, Diagnostic{
				ID:       DiagSRShadowed,
				Severity: SevWarn,
				Message: fmt.Sprintf(
					"sr %s is pre-empted on its own trigger: rules applied before it disable it",
					sr.Name),
				Rules:   []RuleRef{{Kind: "sr", Index: i, Name: sr.Name}},
				Witness: &Witness{Kind: WitnessShadowedBy, Path: before},
			})
		}
	}
	return ds
}

func srRefsByName(p *profile.Profile, names []string) []RuleRef {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var refs []RuleRef
	for i, sr := range p.SRs {
		if want[sr.Name] {
			refs = append(refs, RuleRef{Kind: "sr", Index: i, Name: sr.Name})
		}
	}
	return refs
}

// --- query-scoped checks ---

// conflictCycleDiagnostic wraps the Section 5.1 cycle error.
func conflictCycleDiagnostic(p *profile.Profile, rep *ConflictReport) Diagnostic {
	var cycle []string
	if rep != nil {
		cycle = rep.Cycle
	}
	return Diagnostic{
		ID:       DiagSRConflictCycle,
		Severity: SevError,
		Message: "scoping rules form a conflict cycle for this query; " +
			"assign priorities to fix the application order (Section 5.1)",
		Rules:   srRefsByName(p, cycle),
		Witness: &Witness{Kind: WitnessConflictCycle, Path: cycle},
	}
}

// vetFlockSatisfiable checks every rewritten query of the flock for
// unsatisfiable required-constraint conjunctions (e.g. an SR adds
// price > 200 to a query already requiring price < 100).
func vetFlockSatisfiable(flock []*tpq.Query) []Diagnostic {
	var ds []Diagnostic
	for pos, fq := range flock {
		n, pair, unsat := unsatQueryConstraints(fq, true)
		if !unsat {
			continue
		}
		what := "the query"
		if pos > 0 {
			what = fmt.Sprintf("flock member %d", pos)
		}
		ds = append(ds, Diagnostic{
			ID:       DiagUnsatRewrite,
			Severity: SevWarn,
			Message: fmt.Sprintf(
				"%s carries an unsatisfiable constraint conjunction on %s after SR rewriting",
				what, nodeLabel(fq, n)),
			Witness: &Witness{Kind: WitnessContradiction, Path: pair},
		})
		break // one witness is enough; later members repeat it
	}
	return ds
}

// vetOrderingTags warns about VORs and KORs whose tag no flock query
// can produce as an answer: the rule is inert for this query.
func vetOrderingTags(p *profile.Profile, flock []*tpq.Query) []Diagnostic {
	tags := map[string]bool{}
	for _, fq := range flock {
		tags[fq.Nodes[fq.Dist].Tag] = true
	}
	reachable := func(tag string) bool { return tags[tag] || tags["*"] }
	tagList := make([]string, 0, len(tags))
	for t := range tags {
		tagList = append(tagList, t)
	}
	sort.Strings(tagList)
	var ds []Diagnostic
	for i, v := range p.VORs {
		if reachable(v.Tag) {
			continue
		}
		ds = append(ds, Diagnostic{
			ID:       DiagVORNoMatch,
			Severity: SevWarn,
			Message: fmt.Sprintf(
				"vor %s orders %q answers, but this query only produces %v",
				v.Name, v.Tag, tagList),
			Rules:   []RuleRef{{Kind: "vor", Index: i, Name: v.Name}},
			Witness: &Witness{Kind: WitnessTagMismatch, Path: append([]string{v.Tag}, tagList...)},
		})
	}
	for i, k := range p.KORs {
		if reachable(k.Tag) {
			continue
		}
		ds = append(ds, Diagnostic{
			ID:       DiagKORNoMatch,
			Severity: SevWarn,
			Message: fmt.Sprintf(
				"kor %s boosts %q answers, but this query only produces %v; its keywords can never match",
				k.Name, k.Tag, tagList),
			Rules:   []RuleRef{{Kind: "kor", Index: i, Name: k.Name}},
			Witness: &Witness{Kind: WitnessTagMismatch, Path: append([]string{k.Tag}, tagList...)},
		})
	}
	return ds
}

// --- constraint satisfiability plumbing ---

// unsatQueryConstraints scans a query's pattern nodes for an
// unsatisfiable constraint conjunction. requiredOnly skips optional
// (outer-joined) predicates — those never filter, so a contradiction
// among them cannot empty the result. Returns the offending node, a
// minimal contradictory witness, and whether one was found.
func unsatQueryConstraints(q *tpq.Query, requiredOnly bool) (node int, witness []string, found bool) {
	for ni := range q.Nodes {
		if requiredOnly && optionalSubtree(q, ni) {
			continue
		}
		var cs []Constraint
		var display []string
		for _, c := range q.Nodes[ni].Constraints {
			if requiredOnly && c.Optional {
				continue
			}
			cs = append(cs, Constraint{Attr: c.Attr, Kind: KindCmp, Op: c.Op, Val: c.Val})
			display = append(display, c.String())
		}
		if len(cs) < 2 || ConsistentConstraints(cs) {
			continue
		}
		// Minimal witness: prefer a contradictory pair.
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				if !ConsistentConstraints([]Constraint{cs[i], cs[j]}) {
					return ni, []string{display[i], display[j]}, true
				}
			}
		}
		return ni, display, true
	}
	return 0, nil, false
}

// optionalSubtree reports whether node ni or one of its ancestors is an
// optional (outer-joined) branch.
func optionalSubtree(q *tpq.Query, ni int) bool {
	for ni >= 0 {
		if q.Nodes[ni].Optional {
			return true
		}
		ni = q.Nodes[ni].Parent
	}
	return false
}

// contradictionWitness extracts a minimal contradictory witness from an
// unsatisfiable constraint set: a contradictory pair when one exists,
// otherwise the whole conjunction.
func contradictionWitness(cs []Constraint) *Witness {
	for i := 0; i < len(cs); i++ {
		for j := i + 1; j < len(cs); j++ {
			if !ConsistentConstraints([]Constraint{cs[i], cs[j]}) {
				return &Witness{
					Kind: WitnessContradiction,
					Path: []string{cs[i].String(), cs[j].String()},
				}
			}
		}
	}
	path := make([]string, len(cs))
	for i, c := range cs {
		path[i] = c.String()
	}
	return &Witness{Kind: WitnessContradiction, Path: path}
}

// nodeLabel names a pattern node for messages: its tag plus index when
// tags repeat.
func nodeLabel(q *tpq.Query, ni int) string {
	tag := q.Nodes[ni].Tag
	count := 0
	for _, n := range q.Nodes {
		if n.Tag == tag {
			count++
		}
	}
	if count > 1 {
		return fmt.Sprintf("%s (pattern node %d)", tag, ni)
	}
	return tag
}
