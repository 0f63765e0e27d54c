package xmldoc

import "fmt"

// Builder constructs a Document in a single preorder pass. It is the
// programmatic construction API used by the data generators and tests;
// Parse builds on it for textual XML.
//
//	b := xmldoc.NewBuilder()
//	b.Start("car", xmldoc.Attr{Name: "vin", Value: "123"})
//	b.Start("price")
//	b.Text("500")
//	b.End() // price
//	b.End() // car
//	doc, err := b.Document()
type Builder struct {
	nodes   []Node
	stack   []NodeID
	lastSib []NodeID // parallel to stack: last child added at that level
	textLen int
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// NewBuilderCap returns a Builder with capacity for n nodes preallocated,
// avoiding re-allocation while generating large synthetic documents.
func NewBuilderCap(n int) *Builder {
	return &Builder{nodes: make([]Node, 0, n)}
}

func (b *Builder) push(n Node) NodeID {
	id := NodeID(len(b.nodes))
	n.Start = int32(id)
	n.End = int32(id)
	n.First = InvalidNode
	n.Next = InvalidNode
	if len(b.stack) == 0 {
		n.Parent = InvalidNode
		n.Level = 0
	} else {
		top := len(b.stack) - 1
		parent := b.stack[top]
		n.Parent = parent
		n.Level = b.nodes[parent].Level + 1
		if b.lastSib[top] == InvalidNode {
			b.nodes[parent].First = id
		} else {
			b.nodes[b.lastSib[top]].Next = id
		}
		b.lastSib[top] = id
	}
	b.nodes = append(b.nodes, n)
	return id
}

// Start opens an element with the given tag and attributes and returns its
// ID. The element stays open until the matching End.
func (b *Builder) Start(tag string, attrs ...Attr) NodeID {
	if b.err != nil {
		return InvalidNode
	}
	if tag == "" {
		b.err = fmt.Errorf("xmldoc: empty element tag")
		return InvalidNode
	}
	if len(b.stack) == 0 && len(b.nodes) > 0 {
		b.err = fmt.Errorf("xmldoc: multiple root elements")
		return InvalidNode
	}
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	id := b.push(Node{Kind: Element, Tag: tag, Attrs: as})
	b.stack = append(b.stack, id)
	b.lastSib = append(b.lastSib, InvalidNode)
	return id
}

// Text appends a character-data node under the currently open element.
// Empty strings are ignored.
func (b *Builder) Text(s string) NodeID {
	if b.err != nil {
		return InvalidNode
	}
	if s == "" {
		return InvalidNode
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmldoc: text outside of any element")
		return InvalidNode
	}
	b.textLen += len(s)
	return b.push(Node{Kind: Text, Text: s})
}

// End closes the most recently opened element.
func (b *Builder) End() {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmldoc: End with no open element")
		return
	}
	top := len(b.stack) - 1
	id := b.stack[top]
	b.nodes[id].End = int32(len(b.nodes) - 1)
	b.stack = b.stack[:top]
	b.lastSib = b.lastSib[:top]
}

// Elem writes a complete leaf element with text content in one call.
func (b *Builder) Elem(tag, text string, attrs ...Attr) NodeID {
	id := b.Start(tag, attrs...)
	b.Text(text)
	b.End()
	return id
}

// Document finalizes and returns the built document. It fails if elements
// remain open or no root was created.
func (b *Builder) Document() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmldoc: %d unclosed element(s)", len(b.stack))
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("xmldoc: empty document")
	}
	nodes := b.nodes
	if cap(nodes) > len(nodes)+len(nodes)/4 {
		// A capacity hint (or the last regrowth) overshot: the document
		// keeps at most 1.25x of what it needs.
		nodes = append(make([]Node, 0, len(nodes)), nodes...)
	}
	d := &Document{nodes: nodes, textLen: b.textLen}
	d.buildPositions()
	return d, nil
}

// MustDocument is Document for tests and generators with known-good input;
// it panics on error.
func (b *Builder) MustDocument() *Document {
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}
