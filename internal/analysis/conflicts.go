package analysis

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/profile"
	"repro/internal/tpq"
)

// ConflictReport captures the Section 5.1 analysis of a scoping-rule set
// against one query.
type ConflictReport struct {
	// Applicable[i] reports whether rule i's condition is subsumed by Q.
	Applicable []bool
	// Conflicts is the conflict digraph over applicable rules: an arc
	// (i, j) means rule i conflicts with rule j w.r.t. Q — both are
	// applicable, but j is not applicable to i(Q).
	Conflicts [][]int
	// Cyclic reports whether the conflict graph has a cycle that
	// priorities do not break: one with a rule that lacks a user
	// priority, or whose rules all share one.
	Cyclic bool
	// Cycle is a witness rule-name sequence when Cyclic.
	Cycle []string
	// Order is the chosen application order (indices into the rule
	// slice): user priorities when every applicable rule has one,
	// otherwise a topological order of the conflict graph that fires
	// conflict *targets* before their attackers, so every applicable rule
	// gets to apply. Conflicts itself keeps every arc, including those a
	// prioritized cycle dropped.
	Order []int
}

// AnalyzeSRs builds the conflict report for rules w.r.t. q.
//
// Ordering semantics: the paper proves different orders can yield
// different results and proposes topologically sorting the conflict
// graph, with user priorities forcing the order when cycles exist. We
// topologically sort so that when i conflicts with j (i would disable j),
// j is applied first — the order that maximizes rule applicability and
// keeps semantics deterministic. When every applicable rule has an
// explicit priority, priorities override the topological order entirely
// (lower priority number fires first). Otherwise priorities decide the
// cycles they can: a cycle whose rules all carry priorities, not all
// equal, follows them (prioritized composition); any other cycle is an
// error.
func AnalyzeSRs(rules []*profile.SR, q *tpq.Query) (*ConflictReport, error) {
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

	// Fire conflict targets before their attackers: dfs finishes a target
	// before the rule that disables it. A cycle whose rules all carry
	// priorities is broken by them: its arcs that point against the
	// priority order go, and the walk repeats.
	arcs := rep.Conflicts
	for {
		order, cycle := dfs(arcs, rep.Applicable)
		if cycle == nil {
			rep.Order = order
			return rep, nil
		}
		if pruned := dropAgainstPriority(arcs, cycle, rules); pruned != nil {
			arcs = pruned
			continue
		}
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
}

// dropAgainstPriority returns arcs without the arcs of cycle that point
// against the priority order (i → j demands j before i, but i has the
// smaller priority number), or nil when cycle has a rule without a
// priority or no such arc. arcs itself is not modified.
func dropAgainstPriority(arcs [][]int, cycle []int, rules []*profile.SR) [][]int {
	for _, i := range cycle {
		if rules[i].Priority == 0 {
			return nil
		}
	}
	var pruned [][]int
	for k, i := range cycle {
		j := cycle[(k+1)%len(cycle)]
		if rules[i].Priority >= rules[j].Priority {
			continue
		}
		if pruned == nil {
			pruned = append([][]int(nil), arcs...)
		}
		pruned[i] = slices.DeleteFunc(slices.Clone(pruned[i]), func(w int) bool { return w == j })
	}
	return pruned
}

// dfs is the package's one depth-first search over the digraph adj,
// entered from every node whose roots entry is true (every node when
// roots is nil) in index order. It returns the nodes in finishing order
// — each node after every node it reaches — or, when it meets a back
// arc, the cycle that arc closes, in arc order.
func dfs(adj [][]int, roots []bool) (post, cycle []int) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(adj)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	cycleStart, cycleEnd := -1, -1
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = gray
		for _, w := range adj[u] {
			if color[w] == gray {
				cycleStart, cycleEnd = w, u
				return true
			}
			if color[w] == white {
				parent[w] = u
				if visit(w) {
					return true
				}
			}
		}
		color[u] = black
		post = append(post, u)
		return false
	}
	for i := 0; i < n; i++ {
		if (roots == nil || roots[i]) && color[i] == white && visit(i) {
			for u := cycleEnd; u != cycleStart; u = parent[u] {
				cycle = append(cycle, u)
			}
			cycle = append(cycle, cycleStart)
			slices.Reverse(cycle)
			return nil, cycle
		}
	}
	return post, nil
}

// Walk applies rules to q in the report's Order: literally (optional
// false), which yields the query flock of Section 5.1 — Q, p1(Q),
// p2(p1(Q)), … — or as the single-plan encoding of Section 6.2
// (optional true), whose last query is the one Search executes. A rule
// that is (or has become) inapplicable at its turn is skipped. It
// returns q followed by each rewrite, and the names of the rules
// applied.
func (r *ConflictReport) Walk(rules []*profile.SR, q *tpq.Query, optional bool) (flock []*tpq.Query, applied []string) {
	return walk(rules, r.Order, q, optional)
}

func walk(rules []*profile.SR, order []int, q *tpq.Query, optional bool) (flock []*tpq.Query, applied []string) {
	flock = []*tpq.Query{q}
	for _, i := range order {
		apply := rules[i].Apply
		if optional {
			apply = rules[i].EncodeOptional
		}
		if out, ok := apply(flock[len(flock)-1]); ok {
			flock = append(flock, out)
			applied = append(applied, rules[i].Name)
		}
	}
	return flock, applied
}

// Flock builds the query flock of Section 5.1 for q under rules: the
// family Q, p1(Q), p2(p1(Q)), ..., applying rules in the order fixed by
// AnalyzeSRs. Rules that are (or become) inapplicable at their turn are
// skipped. It returns the flock (starting with q itself) and the names
// of the rules actually applied.
func Flock(rules []*profile.SR, q *tpq.Query) (flock []*tpq.Query, applied []string, err error) {
	rep, err := AnalyzeSRs(rules, q)
	if err != nil {
		return nil, nil, err
	}
	flock, applied = rep.Walk(rules, q, false)
	return flock, applied, nil
}

// EncodeFlock enforces the rules on q via the single-plan encoding of
// Section 6.2 ("SRs can be enforced by encoding the query flock into a
// single query plan, without requiring actual rewriting"): each rule is
// applied in the same order as Flock but with EncodeOptional, so the
// result is one query whose optional, score-contributing predicates
// capture the whole flock. Returns the encoded query and the applied
// rule names.
func EncodeFlock(rules []*profile.SR, q *tpq.Query) (*tpq.Query, []string, error) {
	rep, err := AnalyzeSRs(rules, q)
	if err != nil {
		return nil, nil, err
	}
	steps, applied := rep.Walk(rules, q, true)
	return steps[len(steps)-1], applied, nil
}
