package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/profile"
)

// AmbiguityReport is the outcome of the Section 5.2 analysis.
type AmbiguityReport struct {
	// Ambiguous is true when the constraint graph has an alternating
	// cycle (Lemma 5.1).
	Ambiguous bool
	// Cycle is a witness when ambiguous: the sequence of rule variables
	// along one alternating cycle, e.g. ["w1.x", "w1.y", "w2.u", "w2.v"].
	Cycle []string
	// Suggestion describes how to break the cycle with priorities.
	Suggestion string
}

// varRef identifies one side of one rule in the constraint graph.
type varRef struct {
	rule int // index into the VOR slice
	pref bool
}

func (v varRef) String(vors []*profile.VOR) string {
	side := "y"
	if v.pref {
		side = "x"
	}
	return vors[v.rule].Name + "." + side
}

// DetectAmbiguity implements Lemma 5.1: build the constraint graph G(O_v)
// whose nodes are the rules' variables, with a directed ≺-arc from each
// rule's preferred variable to its dominated one and an undirected
// =-edge between every compatible pair of variables from different
// rules; O_v is ambiguous iff G contains an alternating cycle
// (≺,=,≺,=,...). Detection runs DFS on the composed relation ≺∘=, which
// has a cycle exactly when an alternating cycle exists — the paper's
// O(#edges) "straightforward adaptation of depth-first search".
func DetectAmbiguity(vors []*profile.VOR) AmbiguityReport {
	n := len(vors)
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
			if i != j && Compatible(vors[i], false, vors[j], true) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	_, rules := dfs(adj, nil)
	if rules == nil {
		return AmbiguityReport{}
	}
	// Expand the rule cycle to the alternating variable walk.
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

// DetectAmbiguityPrioritized re-runs the analysis under user priorities
// (Section 5.2's resolution): only alternating cycles whose rules all
// share the same priority remain ambiguous, since distinct priorities
// impose a fixed application order that breaks the cycle. Unprioritized
// rules (priority 0) form one group.
func DetectAmbiguityPrioritized(vors []*profile.VOR) AmbiguityReport {
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
		if rep := DetectAmbiguity(groups[k]); rep.Ambiguous {
			return rep
		}
	}
	return AmbiguityReport{}
}
