package xmldoc

import (
	"fmt"
	"math"
	"strings"
	"unsafe"
)

// Builder constructs a Document in a single preorder pass, appending to
// its columns. It is the programmatic construction API used by the data
// generators and tests; the XML scanner writes the same columns through
// the unexported methods that the public ones wrap with their checks.
//
//	b := xmldoc.NewBuilder()
//	b.Start("car", xmldoc.Attr{Name: "vin", Value: "123"})
//	b.Start("price")
//	b.Text("500")
//	b.End() // price
//	b.End() // car
//	doc, err := b.Document()
type Builder struct {
	columns
	arena  []byte
	nameID map[string]uint32
	stack  []NodeID // the open elements, root first
	err    error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return NewBuilderCap(0)
}

// NewBuilderCap returns a Builder with capacity for n nodes preallocated,
// avoiding re-allocation while generating large synthetic documents.
func NewBuilderCap(n int) *Builder {
	b := newBuilder(n, 0, 0)
	return &b
}

// newBuilder returns a Builder with room for n nodes, attrs attributes
// and arena bytes of character data and attribute values.
func newBuilder(n, attrs, arena int) Builder {
	return Builder{
		columns: columns{
			kind:    make([]NodeKind, 0, n),
			tag:     make([]uint32, 0, n),
			parent:  make([]NodeID, 0, n),
			post:    make([]int32, 0, n),
			level:   make([]int32, 0, n),
			off:     make([]uint32, 0, n+1),
			attrOff: make([]uint32, 0, n+1),
			attrs:   make([]attrRec, 0, attrs),
			names:   []string{""},
		},
		arena:  make([]byte, 0, arena),
		nameID: map[string]uint32{"": 0},
	}
}

// intern returns the ID of name, copying it on first sight: the scanner
// passes views of a source it must not retain.
func (b *Builder) intern(name string) uint32 {
	id, ok := b.nameID[name]
	if !ok {
		name = strings.Clone(name)
		id = uint32(len(b.names))
		b.names = append(b.names, name)
		b.nameID[name] = id
	}
	return id
}

// push appends a node of the given kind and tag under the open element.
func (b *Builder) push(kind NodeKind, tag uint32) NodeID {
	id, parent := NodeID(len(b.kind)), InvalidNode
	if top := len(b.stack) - 1; top >= 0 {
		parent = b.stack[top]
	}
	b.kind = append(b.kind, kind)
	b.tag = append(b.tag, tag)
	b.parent = append(b.parent, parent)
	b.post = append(b.post, int32(id))
	b.level = append(b.level, int32(len(b.stack)))
	b.off = append(b.off, uint32(len(b.arena)))
	b.attrOff = append(b.attrOff, uint32(len(b.attrs)))
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
	id, err := b.start(b.intern(tag))
	if err != nil {
		b.err = fmt.Errorf("xmldoc: %w", err)
		return id
	}
	for _, a := range attrs {
		b.addAttr(b.intern(a.Name), a.Value)
	}
	return id
}

// start opens an element; it fails once the root element is closed.
func (b *Builder) start(tag uint32) (NodeID, error) {
	if len(b.stack) == 0 && len(b.kind) > 0 {
		return InvalidNode, fmt.Errorf("multiple root elements")
	}
	id := b.push(Element, tag)
	b.stack = append(b.stack, id)
	return id, nil
}

// addAttr gives the element just opened one more attribute.
func (b *Builder) addAttr(name uint32, value string) {
	b.arena = append(b.arena, value...)
	b.attrs = append(b.attrs, attrRec{name: name, end: uint32(len(b.arena))})
}

// leave closes the innermost open element at the last node pushed.
func (b *Builder) leave() {
	top := len(b.stack) - 1
	b.post[b.stack[top]] = int32(len(b.kind) - 1)
	b.stack = b.stack[:top]
}

// text appends a character-data node under the open element.
func (b *Builder) text(s string) NodeID {
	id := b.push(Text, 0)
	b.arena = append(b.arena, s...)
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
	if len(b.kind) == 0 {
		return nil, fmt.Errorf("xmldoc: empty document")
	}
	if uint64(len(b.arena)) > math.MaxUint32 {
		return nil, fmt.Errorf("xmldoc: %d bytes of character data and attribute values (4 GiB at most)", len(b.arena))
	}
	arena := fit(b.arena)
	return &Document{
		columns: columns{
			kind:    fit(b.kind),
			tag:     fit(b.tag),
			parent:  fit(b.parent),
			post:    fit(b.post),
			level:   fit(b.level),
			off:     fit(append(b.off, uint32(len(b.arena)))),
			attrOff: fit(append(b.attrOff, uint32(len(b.attrs)))),
			attrs:   fit(b.attrs),
			names:   b.names,
		},
		arena: unsafe.String(unsafe.SliceData(arena), len(arena)),
	}, nil
}

// fit returns s, copied to its length when a capacity hint (or the last
// regrowth) overshot by more than a quarter: a document keeps at most
// 1.25x of what it needs.
func fit[S ~[]E, E any](s S) S {
	if cap(s) > len(s)+len(s)/4 {
		return append(make(S, 0, len(s)), s...)
	}
	return s
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
