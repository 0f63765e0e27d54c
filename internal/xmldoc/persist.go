package xmldoc

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Node is one node's record in snapshot format v1, which stores a
// document as an array of them in preorder. Start/End are the region
// encoding: Start is the node's ID, End the largest ID in its subtree.
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

// persistedDocument is the on-disk form of a Document.
type persistedDocument struct {
	Version int
	Nodes   []Node
	TextLen int
}

// persistVersion guards the snapshot format.
const persistVersion = 1

// Save writes the document in a binary snapshot format (gob). The
// snapshot restores byte-for-byte identical documents with Load.
func (d *Document) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	return enc.Encode(persistedDocument{
		Version: persistVersion,
		Nodes:   d.records(),
		TextLen: d.textLen(),
	})
}

// Load reads a document snapshot written by Save, validating the
// structural invariants (parent pointers, region encoding, levels) so a
// corrupted or truncated snapshot cannot produce an inconsistent tree.
func Load(r io.Reader) (*Document, error) {
	var p persistedDocument
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("xmldoc: load: %w", err)
	}
	if p.Version != persistVersion {
		return nil, fmt.Errorf("xmldoc: load: unsupported snapshot version %d", p.Version)
	}
	d, err := fromRecords(p.Nodes)
	if err == nil && d.textLen() != p.TextLen {
		err = fmt.Errorf("text length mismatch: %d vs %d", d.textLen(), p.TextLen)
	}
	if err != nil {
		return nil, fmt.Errorf("xmldoc: load: corrupt snapshot: %w", err)
	}
	return d, nil
}

// records returns the document as v1 records.
func (d *Document) records() []Node {
	nodes := make([]Node, d.Len())
	attrs := make([]Attr, len(d.attrs))
	for i := range nodes {
		id := NodeID(i)
		var as []Attr
		if lo, hi := d.attrOff[i], d.attrOff[i+1]; hi > lo {
			as = attrs[lo:hi:hi]
			for j := range as {
				as[j] = d.AttrAt(id, j)
			}
		}
		nodes[i] = Node{Kind: d.kind[i], Tag: d.Tag(id), Text: d.Text(id), Attrs: as, Parent: d.parent[i],
			First: d.FirstChild(id), Next: d.NextSibling(id), Start: int32(i), End: d.post[i], Level: d.level[i]}
	}
	return nodes
}

// fromRecords rebuilds the columns from v1 records: it replays them
// through a Builder, opening each node under the parent its record
// names, and then accepts them only if every record's links, region and
// level are the ones the rebuilt columns derive.
func fromRecords(nodes []Node) (*Document, error) {
	b := NewBuilderCap(len(nodes))
	for i := range nodes {
		n := &nodes[i]
		for len(b.stack) > 0 && b.stack[len(b.stack)-1] != n.Parent {
			b.leave()
		}
		if n.Kind == Text && len(b.stack) > 0 {
			b.text(n.Text)
		} else {
			b.Start(n.Tag, n.Attrs...) // fails past the root, or for a text node outside it
		}
	}
	for len(b.stack) > 0 {
		b.leave()
	}
	d, err := b.Document()
	if err != nil {
		return nil, err
	}
	for i := range nodes {
		n, id := &nodes[i], NodeID(i)
		if n.Kind != d.kind[i] || n.Parent != d.parent[i] || n.First != d.FirstChild(id) || n.Next != d.NextSibling(id) ||
			n.Start != int32(i) || n.End != d.post[i] || n.Level != d.level[i] {
			return nil, fmt.Errorf("node %d: record (kind %d, parent %d, first %d, next %d, region [%d,%d], level %d) "+
				"disagrees with its tree", i, n.Kind, n.Parent, n.First, n.Next, n.Start, n.End, n.Level)
		}
	}
	return d, nil
}

// textLen returns the total length of the document's character data,
// the v1 record's TextLen.
func (d *Document) textLen() int {
	n := 0
	for i, k := range d.kind {
		if k == Text {
			n += int(d.off[i+1] - d.off[i])
		}
	}
	return n
}
