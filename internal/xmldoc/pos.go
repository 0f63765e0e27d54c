package xmldoc

// Positions is the document's (pre, post, level) positional encoding as
// flat arrays keyed by NodeID. The preorder number of a node IS its
// NodeID (nodes are appended in preorder), so only post and level are
// columns. The twig join and the matcher's structural predicates run
// their hot loops over these arrays: an ancestor test is one compare
// against Post, a parent test adds one compare against Level.
//
// Invariants (guaranteed by Builder and checked on Load):
//
//	pre(n)  == n                      (NodeID is the preorder rank)
//	Post[n] == largest pre in n's subtree (the v1 record's End)
//	a is a proper ancestor of d  ⇔  a < d && d <= Post[a]
//	p is the parent of c         ⇔  ancestor && Level[c] == Level[p]+1
//
// The parent characterization holds because a node has exactly one
// ancestor per level.
type Positions struct {
	Post  []int32
	Level []int32
}

// Ancestor reports whether a is a proper ancestor of d in O(1).
func (p Positions) Ancestor(a, d NodeID) bool {
	return a >= 0 && a < d && int32(d) <= p.Post[a]
}

// ParentOf reports whether par is the parent of c in O(1).
func (p Positions) ParentOf(par, c NodeID) bool {
	return p.Ancestor(par, c) && p.Level[c] == p.Level[par]+1
}

// Pos returns the document's positional arrays: its post and level
// columns, shared; callers must not mutate them.
func (d *Document) Pos() Positions {
	return Positions{Post: d.post, Level: d.level}
}
