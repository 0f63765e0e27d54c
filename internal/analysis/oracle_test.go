package analysis

// The Section 5 analyses as they stood before they were computed once
// per verdict: AnalyzeSRs with its own topological sort, Flock and
// EncodeFlock each re-running it, detect with its own DFS, and the vet
// front half re-running both. They are kept verbatim (renamed with an
// oracle prefix; the vet helpers they share with the serving code are
// called as they are today) so TestAnalysisMatchesOracle can hold the
// one-pass analysis to them.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/profile"
	"repro/internal/tpq"
)

func oracleAnalyzeSRs(rules []*profile.SR, q *tpq.Query) (*ConflictReport, error) {
	n := len(rules)
	rep := &ConflictReport{
		Applicable: make([]bool, n),
		Conflicts:  make([][]int, n),
	}
	rewritten := make([]*tpq.Query, n)
	for i, sr := range rules {
		if _, err := sr.CondQuery(); err != nil {
			return nil, err
		}
		rep.Applicable[i] = sr.Applicable(q)
		if rep.Applicable[i] {
			if out, ok := sr.Apply(q); ok {
				rewritten[i] = out
			}
		}
	}
	for i := range rules {
		if !rep.Applicable[i] || rewritten[i] == nil {
			continue
		}
		for j := range rules {
			if i == j || !rep.Applicable[j] {
				continue
			}
			if !rules[j].Applicable(rewritten[i]) {
				rep.Conflicts[i] = append(rep.Conflicts[i], j)
			}
		}
	}

	prioritized := true
	for i := range rules {
		if rep.Applicable[i] && rules[i].Priority == 0 {
			prioritized = false
			break
		}
	}
	if prioritized {
		// User-assigned order. (Also resolves any conflict cycles.)
		var idx []int
		for i := range rules {
			if rep.Applicable[i] {
				idx = append(idx, i)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return rules[idx[a]].Priority < rules[idx[b]].Priority
		})
		rep.Order = idx
		return rep, nil
	}

	order, cycle := oracleTopoOrder(rep, rules)
	if cycle != nil {
		rep.Cyclic = true
		for _, i := range cycle {
			rep.Cycle = append(rep.Cycle, rules[i].Name)
		}
		// Canonical rotation: byte-stable witness regardless of DFS entry.
		rep.Cycle = canonicalRotation(rep.Cycle, 1)
		return rep, fmt.Errorf(
			"analysis: conflict cycle among scoping rules %v; assign priorities to fix the application order (Section 5.1)",
			rep.Cycle)
	}
	rep.Order = order
	return rep, nil
}

// topoOrder returns the application order: reverse-topological over the
// conflict arcs (targets before attackers). If the graph is cyclic it
// returns a witness cycle instead.
func oracleTopoOrder(rep *ConflictReport, rules []*profile.SR) (order []int, cycle []int) {
	n := len(rules)
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var post []int
	cycleStart, cycleEnd := -1, -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, w := range rep.Conflicts[u] {
			if color[w] == gray {
				cycleStart, cycleEnd = w, u
				return true
			}
			if color[w] == white {
				parent[w] = u
				if dfs(w) {
					return true
				}
			}
		}
		color[u] = black
		post = append(post, u)
		return false
	}
	for i := 0; i < n; i++ {
		if rep.Applicable[i] && color[i] == white {
			if dfs(i) {
				var c []int
				for u := cycleEnd; u != cycleStart; u = parent[u] {
					c = append(c, u)
				}
				c = append(c, cycleStart)
				for l, r := 0, len(c)-1; l < r; l, r = l+1, r-1 {
					c[l], c[r] = c[r], c[l]
				}
				return nil, c
			}
		}
	}
	// post is already "targets first": dfs finishes conflict targets
	// before their attackers, and appending at finish time yields
	// children (targets) before parents (attackers).
	return post, nil
}

// Flock builds the query flock of Section 5.1 for q under rules: the
// family Q, p1(Q), p2(p1(Q)), ..., applying rules in the order fixed by
// AnalyzeSRs. Rules that are (or become) inapplicable at their turn are
// skipped. It returns the flock (starting with q itself) and the names
// of the rules actually applied.
func oracleFlock(rules []*profile.SR, q *tpq.Query) (flock []*tpq.Query, applied []string, err error) {
	rep, err := oracleAnalyzeSRs(rules, q)
	if err != nil {
		return nil, nil, err
	}
	flock = []*tpq.Query{q}
	cur := q
	for _, i := range rep.Order {
		out, ok := rules[i].Apply(cur)
		if !ok {
			continue
		}
		flock = append(flock, out)
		applied = append(applied, rules[i].Name)
		cur = out
	}
	return flock, applied, nil
}

// EncodeFlock enforces the rules on q via the single-plan encoding of
// Section 6.2 ("SRs can be enforced by encoding the query flock into a
// single query plan, without requiring actual rewriting"): each rule is
// applied in the same order as Flock but with EncodeOptional, so the
// result is one query whose optional, score-contributing predicates
// capture the whole flock. Returns the encoded query and the applied
// rule names.
func oracleEncodeFlock(rules []*profile.SR, q *tpq.Query) (*tpq.Query, []string, error) {
	rep, err := oracleAnalyzeSRs(rules, q)
	if err != nil {
		return nil, nil, err
	}
	cur := q
	var applied []string
	for _, i := range rep.Order {
		out, ok := rules[i].EncodeOptional(cur)
		if !ok {
			continue
		}
		applied = append(applied, rules[i].Name)
		cur = out
	}
	return cur, applied, nil
}

func oracleDetectAmbiguity(vors []*profile.VOR) AmbiguityReport {
	return oracleDetect(vors, nil)
}

// DetectAmbiguityPrioritized re-runs the analysis under user priorities
// (Section 5.2's resolution): only alternating cycles whose rules all
// share the same priority remain ambiguous, since distinct priorities
// impose a fixed application order that breaks the cycle. Unprioritized
// rules (priority 0) form one group.
func oracleDetectAmbiguityPrioritized(vors []*profile.VOR) AmbiguityReport {
	groups := map[int][]*profile.VOR{}
	for _, v := range vors {
		groups[v.Priority] = append(groups[v.Priority], v)
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if rep := oracleDetectAmbiguity(groups[k]); rep.Ambiguous {
			return rep
		}
	}
	return AmbiguityReport{}
}

func oracleDetect(vors []*profile.VOR, _ any) AmbiguityReport {
	n := len(vors)
	if n == 0 {
		return AmbiguityReport{}
	}
	// Composed graph H over rules: arc i -> j iff y_i (rule i's dominated
	// variable) is compatible with x_j (rule j's preferred variable) for
	// some orientation. More precisely, alternating steps are
	// x_i ≺ y_i = v where v is any variable of another rule; continuing
	// the alternation requires v to be that rule's preferred variable
	// x_j (the next ≺-arc starts at x_j). An =-edge landing on y_j
	// cannot continue an alternating cycle, so composing ≺ with = onto
	// preferred variables is exhaustive.
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Compatible(vors[i], false, vors[j], true) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	// DFS cycle detection with path recovery.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycleStart, cycleEnd = -1, -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, w := range adj[u] {
			if color[w] == gray {
				cycleStart, cycleEnd = w, u
				return true
			}
			if color[w] == white {
				parent[w] = u
				if dfs(w) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := 0; i < n && cycleStart == -1; i++ {
		if color[i] == white {
			dfs(i)
		}
	}
	if cycleStart == -1 {
		return AmbiguityReport{}
	}
	// Recover the rule cycle and expand to the alternating variable walk.
	var rules []int
	for u := cycleEnd; u != cycleStart; u = parent[u] {
		rules = append(rules, u)
	}
	rules = append(rules, cycleStart)
	// reverse into forward order
	for l, r := 0, len(rules)-1; l < r; l, r = l+1, r-1 {
		rules[l], rules[r] = rules[r], rules[l]
	}
	var walk []string
	for _, ri := range rules {
		walk = append(walk,
			varRef{ri, true}.String(vors),
			varRef{ri, false}.String(vors))
	}
	// Canonicalize to the lexicographically smallest rotation (stride 2:
	// x/y pairs rotate together) so the witness is byte-stable no matter
	// where DFS entered the cycle.
	walk = canonicalRotation(walk, 2)
	names := make([]string, 0, len(rules))
	for i := 0; i < len(walk); i += 2 {
		v := walk[i]
		names = append(names, v[:strings.LastIndexByte(v, '.')])
	}
	return AmbiguityReport{
		Ambiguous: true,
		Cycle:     walk,
		Suggestion: fmt.Sprintf(
			"assign distinct priorities to rules %v to break the alternating cycle",
			names),
	}
}

// Vet runs the full suite. q may be nil, in which case only the
// profile-scoped checks run (query-scoped conflict analysis then relies
// on the per-rule trigger probes of VetProfile).
func oracleVet(p *profile.Profile, q *tpq.Query) []Diagnostic {
	ds := oracleVetProfile(p)
	if q != nil {
		ds = append(ds, oracleVetQuery(p, q)...)
	}
	SortDiagnostics(ds)
	return ds
}

// VetProfile runs the query-independent checks: VOR ambiguity (the
// Section 5.2 gate, plus the resolved-by-priorities advisory), dead and
// redundant VORs, KOR phrase hygiene, exact-duplicate rule bodies, and
// the per-SR trigger probes (unsatisfiable conditions, dead actions,
// shadowing, reachable conflict cycles).
func oracleVetProfile(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	ds = append(ds, oracleVetAmbiguity(p)...)
	ds = append(ds, vetVORDead(p)...)
	ds = append(ds, vetVORRedundant(p)...)
	ds = append(ds, vetKORPhrases(p)...)
	ds = append(ds, vetDuplicateBodies(p)...)
	ds = append(ds, oracleVetSRProbes(p)...)
	SortDiagnostics(ds)
	return ds
}

// VetQuery runs the query-scoped checks for q: the conflict-cycle gate
// of Section 5.1, unsatisfiable constraint conjunctions in the
// rewritten flock, and ordering rules whose tag no flock answer can
// carry. The returned list holds only query-scoped findings; use Vet to
// merge with VetProfile.
func oracleVetQuery(p *profile.Profile, q *tpq.Query) []Diagnostic {
	var ds []Diagnostic
	rep, err := oracleAnalyzeSRs(p.SRs, q)
	if err != nil {
		ds = append(ds, oracleConflictCycleDiagnostic(p, rep))
		SortDiagnostics(ds)
		return ds
	}
	flock, _, ferr := oracleFlock(p.SRs, q)
	if ferr != nil {
		// Unreachable when AnalyzeSRs succeeded, but keep the gate.
		SortDiagnostics(ds)
		return ds
	}
	ds = append(ds, vetFlockSatisfiable(flock)...)
	ds = append(ds, vetOrderingTags(p, flock)...)
	SortDiagnostics(ds)
	return ds
}

// --- VOR checks ---

// vetAmbiguity maps the Section 5.2 analysis onto diagnostics: an
// alternating cycle that survives priority resolution is an error
// (Search rejects the profile); one that priorities break is an info.
func oracleVetAmbiguity(p *profile.Profile) []Diagnostic {
	var ds []Diagnostic
	prio := oracleDetectAmbiguityPrioritized(p.VORs)
	if prio.Ambiguous {
		ds = append(ds, Diagnostic{
			ID:       DiagVORAmbiguous,
			Severity: SevError,
			Message: "value-based ordering rules are ambiguous (Lemma 5.1): " +
				prio.Suggestion,
			Rules:   vorRefsFromWalk(p, prio.Cycle),
			Witness: &Witness{Kind: WitnessAlternatingCycle, Path: prio.Cycle},
		})
		return ds
	}
	if raw := oracleDetectAmbiguity(p.VORs); raw.Ambiguous {
		ds = append(ds, Diagnostic{
			ID:       DiagVORAmbiguousResolved,
			Severity: SevInfo,
			Message:  "ordering rules contain an alternating cycle that the assigned priorities break",
			Rules:    vorRefsFromWalk(p, raw.Cycle),
			Witness:  &Witness{Kind: WitnessAlternatingCycle, Path: raw.Cycle},
		})
	}
	return ds
}

// --- SR probes (profile-scoped) ---

// vetSRProbes analyses each scoping rule against its own trigger query
// (its condition pattern — the most specific query the rule applies
// to): unsatisfiable conditions, actions that cannot be carried out
// even on the trigger, rules pre-empted by the application order, and
// conflict cycles reachable from a trigger.
func oracleVetSRProbes(p *profile.Profile) []Diagnostic {
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
		rep, err := oracleAnalyzeSRs(p.SRs, cond)
		if err != nil {
			if !cycleSeen {
				cycleSeen = true
				cycle := canonicalRotation(rep.Cycle, 1)
				ds = append(ds, Diagnostic{
					ID:       DiagSRProbeCycle,
					Severity: SevWarn,
					Message: fmt.Sprintf(
						"a conflict cycle is reachable from sr %s's own trigger; queries matching it will be rejected unless priorities are assigned",
						sr.Name),
					Rules:   srRefsByName(p, cycle),
					Witness: &Witness{Kind: WitnessConflictCycle, Path: cycle},
				})
			}
			continue
		}
		// Shadowing: replay the application order on the trigger and see
		// whether the rule ever fires.
		applied, fired := oracleReplayOrder(p.SRs, rep.Order, cond, i)
		if !fired {
			ds = append(ds, Diagnostic{
				ID:       DiagSRShadowed,
				Severity: SevWarn,
				Message: fmt.Sprintf(
					"sr %s is pre-empted on its own trigger: rules applied before it disable it",
					sr.Name),
				Rules:   []RuleRef{{Kind: "sr", Index: i, Name: sr.Name}},
				Witness: &Witness{Kind: WitnessShadowedBy, Path: applied},
			})
		}
	}
	return ds
}

// replayOrder applies rules in order to q (the Flock loop) and reports
// whether rule `watch` fired, plus the names applied before its turn.
func oracleReplayOrder(rules []*profile.SR, order []int, q *tpq.Query, watch int) (before []string, fired bool) {
	cur := q
	for _, idx := range order {
		out, ok := rules[idx].Apply(cur)
		if idx == watch {
			return before, ok
		}
		if ok {
			before = append(before, rules[idx].Name)
			cur = out
		}
	}
	// The watched rule was not applicable at all (not in the order):
	// treat as shadowed with everything applied before it.
	return before, false
}

// --- query-scoped checks ---

// conflictCycleDiagnostic wraps the Section 5.1 cycle error.
func oracleConflictCycleDiagnostic(p *profile.Profile, rep *ConflictReport) Diagnostic {
	var cycle []string
	if rep != nil {
		cycle = canonicalRotation(rep.Cycle, 1)
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
