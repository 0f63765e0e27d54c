package xmldoc

import "fmt"

// Builder constructs a Document in a single preorder pass. It is the
// programmatic construction API used by the data generators and tests;
// the XML scanner shares its node arena and open-element bookkeeping.
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

// push appends a node of the given kind, linked under the open element,
// and returns it for the caller to fill in place.
func (b *Builder) push(kind NodeKind) *Node {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{Kind: kind, Parent: InvalidNode, First: InvalidNode, Next: InvalidNode, Start: int32(id), End: int32(id)})
	n := &b.nodes[id]
	if top := len(b.stack) - 1; top >= 0 {
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
	return n
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
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	id, err := b.start(tag, as)
	if err != nil {
		b.err = fmt.Errorf("xmldoc: %w", err)
	}
	return id
}

// start opens an element; it fails once the root element is closed.
func (b *Builder) start(tag string, attrs []Attr) (NodeID, error) {
	if len(b.stack) == 0 && len(b.nodes) > 0 {
		return InvalidNode, fmt.Errorf("multiple root elements")
	}
	n := b.push(Element)
	n.Tag, n.Attrs = tag, attrs
	b.stack = append(b.stack, NodeID(n.Start))
	b.lastSib = append(b.lastSib, InvalidNode)
	return NodeID(n.Start), nil
}

// leave closes the innermost open element at the last node pushed.
func (b *Builder) leave() {
	top := len(b.stack) - 1
	b.nodes[b.stack[top]].End = int32(len(b.nodes) - 1)
	b.stack, b.lastSib = b.stack[:top], b.lastSib[:top]
}

// text appends a character-data node under the open element.
func (b *Builder) text(s string) NodeID {
	b.textLen += len(s)
	n := b.push(Text)
	n.Text = s
	return NodeID(n.Start)
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
	return b.text(s)
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
	b.leave()
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
