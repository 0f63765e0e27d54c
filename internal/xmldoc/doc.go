// Package xmldoc implements the XML document substrate used by PIMENTO:
// a document stored as per-node columns over one text arena, with region
// (interval) encoding for constant-time structural predicates, a parent
// column for parent-child checks, and typed value access for constraint
// predicates such as price < 2000.
//
// The model intentionally mirrors what the paper's evaluation needs:
// element trees with text content, where an "attribute" of an element (as
// in x.color or x.mileage of Section 3.2) is either an XML attribute or
// the text of a single child element with that tag.
package xmldoc

import (
	"fmt"
	"strings"
)

// NodeID identifies a node inside a Document. IDs are dense indices into
// the document's columns and are assigned in document (preorder) order,
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
	// Text is a character-data node; Document.Text returns its content.
	Text
)

// Attr is an XML attribute on an element node.
type Attr struct {
	Name  string
	Value string
}

// Document is an immutable parsed XML document, stored as columns: one
// array per node field, indexed by NodeID. No column holds a pointer —
// character data and attribute values are offsets into one arena string,
// tag and attribute names are IDs into one small table of interned
// names — so the garbage collector never scans a document's nodes, and a
// node costs 25 bytes plus its text.
//
// The tree links are derived, not stored. A NodeID is the node's
// preorder rank, so its subtree is the run id..post[id]: its first child
// is id+1 when id < post[id], and its next sibling is post[id]+1 when
// that is still inside its parent's subtree.
type Document struct {
	columns
	arena string
}

// columns are the per-node arrays a Builder appends to and a Document
// reads.
type columns struct {
	kind   []NodeKind
	tag    []uint32 // into names; 0 ("") for a text node
	parent []NodeID
	post   []int32 // the largest NodeID in the node's subtree
	level  []int32 // depth; the root has level 0
	// In a Document, off and attrOff hold one entry more than there are
	// nodes (Builder.Document appends the last). Node i owns
	// arena[off[i]:off[i+1]] — a text node's character data, an
	// element's attribute values back to back — and its attributes are
	// attrs[attrOff[i]:attrOff[i+1]].
	off     []uint32
	attrOff []uint32
	attrs   []attrRec
	names   []string // interned tag and attribute names; names[0] is ""
}

// attrRec is one attribute: its name and where its value ends in the
// arena. The value starts where the element's previous attribute ends,
// or at the element's off for its first.
type attrRec struct{ name, end uint32 }

// Root returns the document's root element ID, or InvalidNode for an
// empty document.
func (d *Document) Root() NodeID {
	if d.Len() == 0 {
		return InvalidNode
	}
	return 0
}

// Len returns the number of nodes (elements and text nodes).
func (d *Document) Len() int { return len(d.kind) }

// Kind returns the node kind of id.
func (d *Document) Kind(id NodeID) NodeKind { return d.kind[id] }

// Tag returns the element tag of id (empty for text nodes).
func (d *Document) Tag(id NodeID) string { return d.names[d.tag[id]] }

// Text returns the character data of text node id (empty for elements).
func (d *Document) Text(id NodeID) string {
	if d.kind[id] != Text {
		return ""
	}
	return d.arena[d.off[id]:d.off[id+1]]
}

// Parent returns the parent of id, or InvalidNode for the root.
func (d *Document) Parent(id NodeID) NodeID { return d.parent[id] }

// Level returns the depth of id (root is 0).
func (d *Document) Level(id NodeID) int32 { return d.level[id] }

// FirstChild returns the first child of id, or InvalidNode.
func (d *Document) FirstChild(id NodeID) NodeID {
	if int32(id) < d.post[id] {
		return id + 1
	}
	return InvalidNode
}

// NextSibling returns the next sibling of id, or InvalidNode.
func (d *Document) NextSibling(id NodeID) NodeID {
	if p := d.parent[id]; p != InvalidNode && d.post[id] < d.post[p] {
		return NodeID(d.post[id] + 1)
	}
	return InvalidNode
}

// NumAttrs returns the number of XML attributes of id.
func (d *Document) NumAttrs(id NodeID) int { return int(d.attrOff[id+1] - d.attrOff[id]) }

// AttrAt returns the i-th XML attribute of id in source order, for
// 0 <= i < NumAttrs(id).
func (d *Document) AttrAt(id NodeID, i int) Attr {
	k := int(d.attrOff[id]) + i
	start := d.off[id]
	if i > 0 {
		start = d.attrs[k-1].end
	}
	return Attr{Name: d.names[d.attrs[k].name], Value: d.arena[start:d.attrs[k].end]}
}

// ChildByTag returns the first child element of id with the given tag, or
// InvalidNode.
func (d *Document) ChildByTag(id NodeID, tag string) NodeID {
	for c := d.FirstChild(id); c != InvalidNode; c = d.NextSibling(c) {
		if d.kind[c] == Element && d.Tag(c) == tag {
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
	for i := range d.NumAttrs(id) {
		if a := d.AttrAt(id, i); a.Name == attr {
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
	for i := id + 1; int32(i) <= d.post[id]; i++ {
		if d.kind[i] == Element && d.Tag(i) == attr {
			return d.TextContent(i), true
		}
	}
	return "", false
}

// TextContent returns the concatenated character data of the subtree
// rooted at id, in document order.
func (d *Document) TextContent(id NodeID) string {
	end := NodeID(d.post[id])
	if d.kind[id] == Text {
		return d.Text(id)
	}
	// A leaf element holding one text node (every XMark value element)
	// is that node's string: no builder, no copy.
	if end == id+1 && d.kind[end] == Text {
		return d.Text(end)
	}
	var sb strings.Builder
	for i := id + 1; i <= end; i++ { // the subtree, in preorder
		if d.kind[i] == Text {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(d.Text(i))
		}
	}
	return sb.String()
}

// Walk visits every node in preorder, calling fn; if fn returns false the
// subtree below the node is skipped.
func (d *Document) Walk(fn func(NodeID) bool) {
	for id := NodeID(0); int(id) < d.Len(); {
		if fn(id) {
			id++
		} else {
			id = NodeID(d.post[id]) + 1
		}
	}
}

// ElementsByTag scans the columns and returns all element IDs with the
// given tag in document order. Index structures should be preferred for
// repeated lookups; this is the naive fallback used in tests.
func (d *Document) ElementsByTag(tag string) []NodeID {
	var out []NodeID
	for i, k := range d.kind {
		if k == Element && d.names[d.tag[i]] == tag {
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
	for n := id; n != InvalidNode; n = d.parent[n] {
		if d.kind[n] == Element {
			parts = append(parts, d.Tag(n))
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
		d.Tag(r), d.Len(), d.textLen())
}
