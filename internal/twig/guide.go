// Strong-dataguide pruning for twig joins.
//
// Before the join streams a single element, each Y-pattern of the query
// skeleton is matched against the index's strong dataguide
// (index.Dataguide): a path summary with one node per distinct
// root-to-tag path. The match is two sweeps — bottom-up then top-down —
// over the guide, whose size is the number of distinct paths (hundreds)
// rather than the number of elements (millions). It has two uses: an
// empty match skips the join altogether, and a non-empty one filters
// the join's input streams.
//
// Soundness: every embedding of the skeleton into the document projects
// to an embedding into the guide (elements map to their guide nodes,
// and parent/ancestor edges are preserved by construction). So a guide
// node that survives no guide embedding contributes no element to any
// answer, and a skeleton with an empty guide match has an empty
// document match — the short-circuit case. The guide over-approximates
// (it may admit paths that no single element realizes jointly), which
// is exactly what a pre-filter requires.

package twig

import (
	"slices"

	"repro/internal/index"
	"repro/internal/tpq"
)

// guideEmb is the result of matching a required skeleton against the
// dataguide: per pattern node, the set of guide nodes that can bind it.
type guideEmb struct {
	// allowed[i][gn] reports whether guide node gn can bind pattern
	// node i; nil for optional-branch nodes (never filtered).
	allowed [][]bool
	// empty is true when some required node has no allowed guide node:
	// the skeleton embeds nowhere and the join can be skipped entirely.
	empty bool
}

// matchGuide runs the two-sweep skeleton match over the dataguide.
func matchGuide(g *index.Dataguide, q *tpq.Query) *guideEmb {
	ng := g.Len()
	n := len(q.Nodes)
	emb := &guideEmb{allowed: make([][]bool, n)}
	skip := make([]bool, n)
	for i := range q.Nodes {
		skip[i] = optionalBranch(q, i)
		if skip[i] {
			continue
		}
		a := make([]bool, ng)
		if tag := q.Nodes[i].Tag; tag == "*" {
			for gn := range a {
				a[gn] = true
			}
		} else {
			for _, gn := range g.NodesByTag(tag) {
				a[gn] = true
			}
		}
		emb.allowed[i] = a
	}
	// Root axis: an absolute pattern root must be the document root,
	// whose path is guide node 0 (the first path visited).
	if q.Nodes[0].Axis == tpq.Child && ng > 0 {
		rootOK := emb.allowed[0][0]
		for gn := range emb.allowed[0] {
			emb.allowed[0][gn] = false
		}
		emb.allowed[0][0] = rootOK
	}

	scratch := make([]bool, ng)
	// Bottom-up: a guide node binds p only if every required child
	// pattern node can bind below it.
	for _, p := range postorder(q) {
		if skip[p] {
			continue
		}
		for _, c := range q.Nodes[p].Children {
			if skip[c] {
				continue
			}
			ok := scratch
			for gn := range ok {
				ok[gn] = false
			}
			if q.Nodes[c].Axis == tpq.Child {
				// ok[gp] ⇔ some guide child of gp can bind c.
				for gn := 0; gn < ng; gn++ {
					if emb.allowed[c][gn] {
						if gp := g.Parent(int32(gn)); gp >= 0 {
							ok[gp] = true
						}
					}
				}
			} else {
				// ok[gp] ⇔ some proper guide descendant of gp can bind
				// c. Guide parents precede children (first-occurrence
				// preorder), so one reverse pass propagates upward.
				for gn := ng - 1; gn >= 1; gn-- {
					if emb.allowed[c][gn] || ok[gn] {
						if gp := g.Parent(int32(gn)); gp >= 0 {
							ok[gp] = true
						}
					}
				}
			}
			for gn := 0; gn < ng; gn++ {
				emb.allowed[p][gn] = emb.allowed[p][gn] && ok[gn]
			}
		}
	}
	// Top-down: a guide node binds c only if a guide parent/ancestor
	// binds c's pattern parent.
	for _, c := range q.Descendants(0) {
		if c == 0 || skip[c] {
			continue
		}
		p := q.Nodes[c].Parent
		if q.Nodes[c].Axis == tpq.Child {
			for gn := 0; gn < ng; gn++ {
				if !emb.allowed[c][gn] {
					continue
				}
				gp := g.Parent(int32(gn))
				emb.allowed[c][gn] = gp >= 0 && emb.allowed[p][gp]
			}
		} else {
			// anc[gn] ⇔ some proper guide ancestor of gn binds p; a
			// forward pass inherits the parent's verdict.
			anc := scratch
			for gn := range anc {
				anc[gn] = false
			}
			for gn := 1; gn < ng; gn++ {
				gp := g.Parent(int32(gn))
				anc[gn] = gp >= 0 && (emb.allowed[p][gp] || anc[gp])
			}
			for gn := 0; gn < ng; gn++ {
				emb.allowed[c][gn] = emb.allowed[c][gn] && anc[gn]
			}
		}
	}

	// Every guide node stands for at least one element, so a required
	// node is unbindable exactly when no guide node is left for it.
	for i := range q.Nodes {
		if !skip[i] && !slices.Contains(emb.allowed[i], true) {
			emb.empty = true
		}
	}
	return emb
}
