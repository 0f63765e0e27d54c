package xmldoc

import (
	"bytes"
	"encoding/gob"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// oracleParse is the parser the scanner replaced, kept as its
// reference: encoding/xml's strict token loop driving the node-array
// Builder the columns replaced. ParseString must accept exactly what it
// accepts and build a Document whose every accessor answers as its
// document does.
func oracleParse(src string) (*oracleDocument, error) {
	return oracleParseReader(strings.NewReader(src), strings.Count(src, "<"), len(src))
}

func oracleParseReader(r io.Reader, lt, srcLen int) (*oracleDocument, error) {
	dec := xml.NewDecoder(r)
	b := &oracleBuilder{nodes: make([]Node, 0, min(lt, srcLen/3))}
	depth := 0
	// Every node shares the first copy of its name, and a name is
	// validated once.
	names := make(map[string]string)
	intern := func(s string) (string, bool) {
		if v, ok := names[s]; ok {
			return v, true
		}
		if !validXMLName(s) {
			return "", false
		}
		names[s] = s
		return s, true
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			tag, ok := intern(t.Name.Local)
			if !ok {
				return nil, fmt.Errorf("xmldoc: parse: invalid element name %q", t.Name.Local)
			}
			var attrs []Attr
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				name, ok := intern(a.Name.Local)
				if !ok {
					// Names the lenient decoder accepts but that cannot
					// be re-serialized as well-formed XML are dropped.
					continue
				}
				attrs = append(attrs, Attr{Name: name, Value: a.Value})
			}
			b.Start(tag, attrs...)
			depth++
		case xml.EndElement:
			b.End()
			depth--
		case xml.CharData:
			if depth == 0 {
				continue
			}
			// t aliases the decoder's buffer: trim there, copy once.
			if s := bytes.TrimSpace(t); len(s) > 0 {
				b.Text(string(s))
			}
		}
	}
	return b.Document()
}

// oracleLoad is Load as it read format v1 into the node array, minus
// the validation the column rebuild now does.
func oracleLoad(r io.Reader) (*oracleDocument, error) {
	var p persistedDocument
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("xmldoc: load: %w", err)
	}
	return &oracleDocument{nodes: p.Nodes, textLen: p.TextLen}, nil
}

// The node-array document and its builder, verbatim from before the
// columns but for their names (Document → oracleDocument, Builder →
// oracleBuilder): the oracle every column accessor is held to.

type oracleDocument struct {
	nodes []Node
	// textLen caches the total character-data length, used by scoring.
	textLen int
}

func (d *oracleDocument) Root() NodeID {
	if len(d.nodes) == 0 {
		return InvalidNode
	}
	return 0
}

func (d *oracleDocument) Len() int { return len(d.nodes) }

func (d *oracleDocument) Tag(id NodeID) string { return d.nodes[id].Tag }

func (d *oracleDocument) ChildByTag(id NodeID, tag string) NodeID {
	for c := d.nodes[id].First; c != InvalidNode; c = d.nodes[c].Next {
		if d.nodes[c].Kind == Element && d.nodes[c].Tag == tag {
			return c
		}
	}
	return InvalidNode
}

func (d *oracleDocument) AttrValue(id NodeID, attr string) (string, bool) {
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

func (d *oracleDocument) DeepValue(id NodeID, attr string) (string, bool) {
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

func (d *oracleDocument) TextContent(id NodeID) string {
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

func (d *oracleDocument) appendText(id NodeID, sb *strings.Builder) {
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

func (d *oracleDocument) Walk(fn func(NodeID) bool) {
	d.walk(d.Root(), fn)
}

func (d *oracleDocument) walk(id NodeID, fn func(NodeID) bool) {
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

func (d *oracleDocument) ElementsByTag(tag string) []NodeID {
	var out []NodeID
	for i := range d.nodes {
		if d.nodes[i].Kind == Element && d.nodes[i].Tag == tag {
			out = append(out, NodeID(i))
		}
	}
	return out
}

func (d *oracleDocument) Path(id NodeID) string {
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

func (d *oracleDocument) WriteXML(w io.Writer, indent string) error {
	return d.writeNode(w, d.Root(), indent, 0)
}

func (d *oracleDocument) writeNode(w io.Writer, id NodeID, indent string, depth int) error {
	n := &d.nodes[id]
	pad := ""
	nl := ""
	if indent != "" {
		pad = strings.Repeat(indent, depth)
		nl = "\n"
	}
	if n.Kind == Text {
		if _, err := fmt.Fprintf(w, "%s%s%s", pad, escapeText(n.Text), nl); err != nil {
			return err
		}
		return nil
	}
	var ab strings.Builder
	for _, a := range n.Attrs {
		fmt.Fprintf(&ab, ` %s="%s"`, a.Name, attrEscaper.Replace(a.Value))
	}
	if n.First == InvalidNode {
		_, err := fmt.Fprintf(w, "%s<%s%s/>%s", pad, n.Tag, ab.String(), nl)
		return err
	}
	// Compact single-text-child elements onto one line for readability.
	if d.nodes[n.First].Kind == Text && d.nodes[n.First].Next == InvalidNode {
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>%s",
			pad, n.Tag, ab.String(), escapeText(d.nodes[n.First].Text), n.Tag, nl)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>%s", pad, n.Tag, ab.String(), nl); err != nil {
		return err
	}
	for c := n.First; c != InvalidNode; c = d.nodes[c].Next {
		// Adjacent text siblings (character data the source split with a
		// comment, PI or directive) stay two nodes when read back.
		if d.nodes[c].Kind == Text && d.nodes[c-1].Kind == Text && d.nodes[c-1].Parent == id {
			if _, err := io.WriteString(w, "<!---->"); err != nil {
				return err
			}
		}
		if err := d.writeNode(w, c, indent, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>%s", pad, n.Tag, nl)
	return err
}

type oracleBuilder struct {
	nodes   []Node
	stack   []NodeID
	lastSib []NodeID // parallel to stack: last child added at that level
	textLen int
	err     error
}

func (b *oracleBuilder) push(kind NodeKind) *Node {
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

func (b *oracleBuilder) Start(tag string, attrs ...Attr) NodeID {
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

func (b *oracleBuilder) start(tag string, attrs []Attr) (NodeID, error) {
	if len(b.stack) == 0 && len(b.nodes) > 0 {
		return InvalidNode, fmt.Errorf("multiple root elements")
	}
	n := b.push(Element)
	n.Tag, n.Attrs = tag, attrs
	b.stack = append(b.stack, NodeID(n.Start))
	b.lastSib = append(b.lastSib, InvalidNode)
	return NodeID(n.Start), nil
}

func (b *oracleBuilder) leave() {
	top := len(b.stack) - 1
	b.nodes[b.stack[top]].End = int32(len(b.nodes) - 1)
	b.stack, b.lastSib = b.stack[:top], b.lastSib[:top]
}

func (b *oracleBuilder) text(s string) NodeID {
	b.textLen += len(s)
	n := b.push(Text)
	n.Text = s
	return NodeID(n.Start)
}

func (b *oracleBuilder) Text(s string) NodeID {
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

func (b *oracleBuilder) End() {
	if b.err != nil {
		return
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmldoc: End with no open element")
		return
	}
	b.leave()
}

func (b *oracleBuilder) Document() (*oracleDocument, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmldoc: %d unclosed element(s)", len(b.stack))
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("xmldoc: empty document")
	}
	return &oracleDocument{nodes: b.nodes, textLen: b.textLen}, nil
}

// sameDocument reports the first difference between a parse and the
// oracle's parse of one source: acceptance, then the columns' own
// consistency, then node by node every accessor — kind, tag, text,
// attributes, parent, first child, next sibling, post, level,
// TextContent, AttrValue, DeepValue, Path — then the text length, Walk,
// ElementsByTag and WriteXML.
func sameDocument(got *Document, want *oracleDocument, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("scanner error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d nodes, oracle %d", got.Len(), want.Len())
	}
	if err := got.validate(); err != nil {
		return fmt.Errorf("columns inconsistent: %w", err)
	}
	for i := range want.nodes {
		id, w := NodeID(i), &want.nodes[i]
		if got.Kind(id) != w.Kind || got.Tag(id) != w.Tag || got.Text(id) != w.Text || !sameAttrs(got, id, w.Attrs) ||
			got.Parent(id) != w.Parent || got.FirstChild(id) != w.First || got.NextSibling(id) != w.Next ||
			got.Pos().Post[id] != w.End || got.Level(id) != w.Level || w.Start != int32(i) {
			return fmt.Errorf("node %d: %+v, oracle %+v", i, got.records()[i], *w)
		}
		if g, o := got.TextContent(id), want.TextContent(id); g != o {
			return fmt.Errorf("node %d: TextContent %q, oracle %q", i, g, o)
		}
		if g, o := got.Path(id), want.Path(id); g != o {
			return fmt.Errorf("node %d: Path %q, oracle %q", i, g, o)
		}
		for _, name := range probeNames(want, id) {
			g, gok := got.AttrValue(id, name)
			o, ook := want.AttrValue(id, name)
			if g != o || gok != ook {
				return fmt.Errorf("node %d: AttrValue(%q) %q %t, oracle %q %t", i, name, g, gok, o, ook)
			}
			g, gok = got.DeepValue(id, name)
			o, ook = want.DeepValue(id, name)
			if g != o || gok != ook {
				return fmt.Errorf("node %d: DeepValue(%q) %q %t, oracle %q %t", i, name, g, gok, o, ook)
			}
		}
	}
	if got.textLen() != want.textLen {
		return fmt.Errorf("text length %d, oracle %d", got.textLen(), want.textLen)
	}
	if g, o := walkOrder(got.Walk), walkOrder(want.Walk); g != o {
		return fmt.Errorf("Walk (skipping every third subtree) visits %s, oracle %s", g, o)
	}
	for _, tag := range append(probeNames(want, 0), want.Tag(0)) {
		if fmt.Sprint(got.ElementsByTag(tag)) != fmt.Sprint(want.ElementsByTag(tag)) {
			return fmt.Errorf("ElementsByTag(%q) differs", tag)
		}
	}
	for _, indent := range []string{"", "  "} {
		var g, o strings.Builder
		if err := got.WriteXML(&g, indent); err != nil {
			return err
		}
		if err := want.WriteXML(&o, indent); err != nil {
			return err
		}
		if g.String() != o.String() {
			return fmt.Errorf("WriteXML(indent %q) differs from the oracle's", indent)
		}
	}
	return nil
}

func sameAttrs(d *Document, id NodeID, want []Attr) bool {
	if d.NumAttrs(id) != len(want) {
		return false
	}
	for i, a := range want {
		if d.AttrAt(id, i) != a {
			return false
		}
	}
	return true
}

// probeNames are the names AttrValue and DeepValue are asked for at
// node id: its first attribute's, its first child element's tag, the
// tag of the last element in its subtree, and one no node carries.
func probeNames(d *oracleDocument, id NodeID) []string {
	names := []string{"no-such-name"}
	n := &d.nodes[id]
	if len(n.Attrs) > 0 {
		names = append(names, n.Attrs[0].Name)
	}
	for c := n.First; c != InvalidNode; c = d.nodes[c].Next {
		if d.nodes[c].Kind == Element {
			names = append(names, d.nodes[c].Tag)
			break
		}
	}
	for i := NodeID(n.End); i > id; i-- {
		if d.nodes[i].Kind == Element {
			names = append(names, d.nodes[i].Tag)
			break
		}
	}
	return names
}

// walkOrder renders the nodes a walk visits when it skips the subtree
// below every third node it is shown.
func walkOrder(walk func(func(NodeID) bool)) string {
	var sb strings.Builder
	k := 0
	walk(func(id NodeID) bool {
		fmt.Fprint(&sb, id, " ")
		k++
		return k%3 != 0
	})
	return sb.String()
}

// TestNameTables holds nameStart and nameChar to the decoder's own
// tables: for every non-ASCII BMP rune and every ASCII name byte, a
// one-rune name and a name continued by the rune parse in the decoder
// exactly when isName accepts them.
func TestNameTables(t *testing.T) {
	accepts := func(name string) bool {
		_, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).RawToken()
		return err == nil
	}
	for r := rune(0); r <= 0xFFFF; r++ {
		if !nameBytes[string(r)[0]] {
			continue
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			if got, want := isName(name), accepts(name); got != want {
				t.Fatalf("isName(%q) = %v, encoding/xml says %v", name, got, want)
			}
		}
	}
}
