// Package profile implements the paper's user profiles (Section 3): a
// profile H = (Σ, O_v, O_k) of scoping rules, value-based ordering rules
// and keyword-based ordering rules, plus the named strict partial orders
// over value domains that VORs of form (3) reference, and a small DSL for
// writing rules as in Fig. 2.
package profile

import (
	"fmt"
	"sort"
)

// PartialOrder is a named strict partial order over string domain values,
// as required by VOR form (3): "prefRel is a binary relation on the domain
// of x.attr which is a strict partial order, e.g. a partial ordering on
// colors". It is stored as the DAG of stated preferences; Prefers answers
// reachability (the transitive closure).
type PartialOrder struct {
	name  string
	edges map[string]map[string]bool // better -> set of directly-worse
}

// NewPartialOrder creates an empty order with the given name.
func NewPartialOrder(name string) *PartialOrder {
	return &PartialOrder{name: name, edges: make(map[string]map[string]bool)}
}

// Name returns the order's name, used by rules to reference it.
func (po *PartialOrder) Name() string { return po.name }

// Add states that better is preferred to worse. It returns an error if
// that would create a cycle (the relation must stay a strict partial
// order).
func (po *PartialOrder) Add(better, worse string) error {
	if better == worse {
		return fmt.Errorf("profile: order %s: %q preferred to itself", po.name, better)
	}
	if po.Prefers(worse, better) {
		return fmt.Errorf("profile: order %s: adding %s > %s creates a cycle",
			po.name, better, worse)
	}
	if po.edges[better] == nil {
		po.edges[better] = make(map[string]bool)
	}
	po.edges[better][worse] = true
	return nil
}

// Prefers reports whether a is strictly preferred to b (reachability in
// the preference DAG).
func (po *PartialOrder) Prefers(a, b string) bool {
	if a == b {
		return false
	}
	seen := map[string]bool{}
	var dfs func(v string) bool
	dfs = func(v string) bool {
		if v == b {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for w := range po.edges[v] {
			if dfs(w) {
				return true
			}
		}
		return false
	}
	for w := range po.edges[a] {
		if w == b || dfs(w) {
			return true
		}
	}
	return false
}

// Values returns every value mentioned by the order, sorted.
func (po *PartialOrder) Values() []string {
	set := map[string]bool{}
	for a, ws := range po.edges {
		set[a] = true
		for w := range ws {
			set[w] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Level assigns each value its depth in a canonical linear extension:
// level 0 for maximal (most preferred) values, and level(v) = 1 + max
// level over values preferred to v. Unknown values get the maximum level
// + 1 (least preferred). Sorting ascending by Level is a linear extension
// of the order, which DESIGN.md §6.3 uses to turn the partial order into
// a sortable key while preserving every stated strict preference.
func (po *PartialOrder) Level(v string) int {
	levels := po.levels()
	if l, ok := levels[v]; ok {
		return l
	}
	maxL := 0
	for _, l := range levels {
		if l+1 > maxL {
			maxL = l + 1
		}
	}
	return maxL
}

func (po *PartialOrder) levels() map[string]int {
	memo := map[string]int{}
	var depth func(v string) int
	// depth from the top: 0 when nothing is preferred to v.
	preferrers := map[string][]string{}
	for a, ws := range po.edges {
		for w := range ws {
			preferrers[w] = append(preferrers[w], a)
		}
	}
	depth = func(v string) int {
		if d, ok := memo[v]; ok {
			return d
		}
		memo[v] = 0 // breaks cycles defensively; Add prevents real ones
		d := 0
		for _, p := range preferrers[v] {
			if pd := depth(p) + 1; pd > d {
				d = pd
			}
		}
		memo[v] = d
		return d
	}
	for _, v := range po.Values() {
		depth(v)
	}
	return memo
}
