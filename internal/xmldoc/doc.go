// Package xmldoc implements the XML document substrate used by PIMENTO:
// an arena-allocated DOM with region (interval) encoding for constant-time
// structural predicates, parent pointers for parent-child checks, and
// typed value access for constraint predicates such as price < 2000.
//
// The model intentionally mirrors what the paper's evaluation needs:
// element trees with text content, where an "attribute" of an element (as
// in x.color or x.mileage of Section 3.2) is either an XML attribute or
// the text of a single child element with that tag.
package xmldoc

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeID identifies a node inside a Document. IDs are dense indices into
// the document's node arena and are assigned in document (preorder) order,
// so sorting answers by NodeID yields document order.
type NodeID int32

// InvalidNode is the null NodeID; it is the parent of the root and the
// child/sibling of nodes that have none.
const InvalidNode NodeID = -1

// NodeKind discriminates element nodes from text nodes.
type NodeKind uint8

const (
	// Element is an XML element node with a tag.
	Element NodeKind = iota
	// Text is a character-data node; its content is in Node.Text.
	Text
)

// Attr is an XML attribute on an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is a single DOM node. Start/End implement region encoding: for two
// nodes a and d, a is a proper ancestor of d iff
// a.Start < d.Start && d.End >= n.End ... see Document.IsAncestor.
type Node struct {
	Kind   NodeKind
	Tag    string // element tag; empty for text nodes
	Text   string // character data; empty for element nodes
	Attrs  []Attr // XML attributes; nil for text nodes
	Parent NodeID
	First  NodeID // first child
	Next   NodeID // next sibling
	Start  int32  // preorder position (== its own NodeID by construction)
	End    int32  // largest Start in the subtree rooted here
	Level  int32  // depth; the root has level 0
}

// Document is an immutable parsed XML document. Nodes are stored in a
// single arena in preorder so that NodeID, Start and arena index coincide.
type Document struct {
	nodes []Node
	// textLen caches the total character-data length, used by scoring.
	textLen int
	// post/level are the flat positional arrays behind Pos(); see pos.go.
	post  []int32
	level []int32
}

// Root returns the document's root element ID, or InvalidNode for an
// empty document.
func (d *Document) Root() NodeID {
	if len(d.nodes) == 0 {
		return InvalidNode
	}
	return 0
}

// Len returns the number of nodes (elements and text nodes).
func (d *Document) Len() int { return len(d.nodes) }

// Node returns the node with the given ID. The returned pointer is valid
// for the lifetime of the document and must not be mutated.
func (d *Document) Node(id NodeID) *Node {
	return &d.nodes[id]
}

// Kind returns the node kind of id.
func (d *Document) Kind(id NodeID) NodeKind { return d.nodes[id].Kind }

// Tag returns the element tag of id (empty for text nodes).
func (d *Document) Tag(id NodeID) string { return d.nodes[id].Tag }

// Parent returns the parent of id, or InvalidNode for the root.
func (d *Document) Parent(id NodeID) NodeID { return d.nodes[id].Parent }

// Level returns the depth of id (root is 0).
func (d *Document) Level(id NodeID) int32 { return d.nodes[id].Level }

// IsAncestor reports whether a is a proper ancestor of dnode, in O(1)
// via region encoding.
func (d *Document) IsAncestor(a, dnode NodeID) bool {
	if a == dnode || a == InvalidNode || dnode == InvalidNode {
		return false
	}
	na, nd := &d.nodes[a], &d.nodes[dnode]
	return na.Start < nd.Start && nd.End <= na.End
}

// IsParent reports whether p is the parent of c.
func (d *Document) IsParent(p, c NodeID) bool {
	return c != InvalidNode && d.nodes[c].Parent == p
}

// Contains reports whether container is a (a == d allowed) ancestor-or-self
// of contained.
func (d *Document) Contains(container, contained NodeID) bool {
	return container == contained || d.IsAncestor(container, contained)
}

// Children returns the element/text children of id in document order.
func (d *Document) Children(id NodeID) []NodeID {
	var out []NodeID
	for c := d.nodes[id].First; c != InvalidNode; c = d.nodes[c].Next {
		out = append(out, c)
	}
	return out
}

// ChildElements returns the element children of id in document order.
func (d *Document) ChildElements(id NodeID) []NodeID {
	var out []NodeID
	for c := d.nodes[id].First; c != InvalidNode; c = d.nodes[c].Next {
		if d.nodes[c].Kind == Element {
			out = append(out, c)
		}
	}
	return out
}

// ChildByTag returns the first child element of id with the given tag, or
// InvalidNode.
func (d *Document) ChildByTag(id NodeID, tag string) NodeID {
	for c := d.nodes[id].First; c != InvalidNode; c = d.nodes[c].Next {
		if d.nodes[c].Kind == Element && d.nodes[c].Tag == tag {
			return c
		}
	}
	return InvalidNode
}

// AttrValue resolves the paper's node "attribute" access x.attr: it
// returns the value of the XML attribute attr if present, otherwise the
// text content of the first child element tagged attr. The second return
// is false if neither exists.
func (d *Document) AttrValue(id NodeID, attr string) (string, bool) {
	n := &d.nodes[id]
	for _, a := range n.Attrs {
		if a.Name == attr {
			return a.Value, true
		}
	}
	if c := d.ChildByTag(id, attr); c != InvalidNode {
		return d.TextContent(c), true
	}
	return "", false
}

// DeepValue resolves x.attr like AttrValue but additionally falls back
// to the first descendant element tagged attr (in document order). The
// paper's ordering rules read x.age on persons whose age element is
// nested inside a profile child; this is the resolution rule the vor
// operator uses.
func (d *Document) DeepValue(id NodeID, attr string) (string, bool) {
	if v, ok := d.AttrValue(id, attr); ok {
		return v, true
	}
	n := &d.nodes[id]
	for i := id + 1; int32(i) <= n.End; i++ {
		if d.nodes[i].Kind == Element && d.nodes[i].Tag == attr {
			return d.TextContent(i), true
		}
	}
	return "", false
}

// NumericValue resolves x.attr as a float64; ok is false when the
// attribute is missing or not numeric.
func (d *Document) NumericValue(id NodeID, attr string) (float64, bool) {
	s, ok := d.AttrValue(id, attr)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// TextContent returns the concatenated character data of the subtree
// rooted at id, in document order.
func (d *Document) TextContent(id NodeID) string {
	n := &d.nodes[id]
	if n.Kind == Text {
		return n.Text
	}
	// A leaf element holding one text node (every XMark value element)
	// is that node's string: no builder, no copy.
	if c := n.First; c != InvalidNode && d.nodes[c].Kind == Text && d.nodes[c].Next == InvalidNode {
		return d.nodes[c].Text
	}
	var sb strings.Builder
	d.appendText(id, &sb)
	return sb.String()
}

func (d *Document) appendText(id NodeID, sb *strings.Builder) {
	for c := d.nodes[id].First; c != InvalidNode; c = d.nodes[c].Next {
		n := &d.nodes[c]
		if n.Kind == Text {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(n.Text)
		} else {
			d.appendText(c, sb)
		}
	}
}

// TotalTextLen returns the total number of characters of text content in
// the document, used for score normalization.
func (d *Document) TotalTextLen() int { return d.textLen }

// Walk visits every node in preorder, calling fn; if fn returns false the
// subtree below the node is skipped.
func (d *Document) Walk(fn func(NodeID) bool) {
	d.walk(d.Root(), fn)
}

func (d *Document) walk(id NodeID, fn func(NodeID) bool) {
	if id == InvalidNode {
		return
	}
	if !fn(id) {
		return
	}
	for c := d.nodes[id].First; c != InvalidNode; c = d.nodes[c].Next {
		d.walk(c, fn)
	}
}

// ElementsByTag scans the arena and returns all element IDs with the given
// tag in document order. Index structures should be preferred for repeated
// lookups; this is the naive fallback used in tests.
func (d *Document) ElementsByTag(tag string) []NodeID {
	var out []NodeID
	for i := range d.nodes {
		if d.nodes[i].Kind == Element && d.nodes[i].Tag == tag {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Path returns a /-separated tag path from the root to id, mainly for
// diagnostics and experiment output.
func (d *Document) Path(id NodeID) string {
	if id == InvalidNode {
		return ""
	}
	var parts []string
	for n := id; n != InvalidNode; n = d.nodes[n].Parent {
		if d.nodes[n].Kind == Element {
			parts = append(parts, d.nodes[n].Tag)
		}
	}
	// reverse
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return "/" + strings.Join(parts, "/")
}

// String summarizes the document for debugging.
func (d *Document) String() string {
	r := d.Root()
	if r == InvalidNode {
		return "Document(empty)"
	}
	return fmt.Sprintf("Document(root=%s, nodes=%d, text=%dB)",
		d.nodes[r].Tag, len(d.nodes), d.textLen)
}
