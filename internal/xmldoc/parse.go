package xmldoc

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// Parse reads an XML document from r into a Document. Namespaces are
// flattened to local names (the paper's data model is namespace-free);
// comments, processing instructions and directives are skipped; whitespace-
// only character data between elements is dropped.
func Parse(r io.Reader) (*Document, error) {
	return parse(r, 0, 0)
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return parse(strings.NewReader(s), strings.Count(s, "<"), len(s))
}

// ParseBytes parses an XML document held in a byte slice, which it
// does not retain.
func ParseBytes(src []byte) (*Document, error) {
	return parse(bytes.NewReader(src), bytes.Count(src, []byte("<")), len(src))
}

// parse sizes the node arena from the source's '<' count, so it is
// allocated once and never regrows: a start tag, an end tag and a CDATA
// section each cost one '<', and outside mixed content a text node is
// followed by its parent's end tag, so the count bounds elements + text
// nodes (XMark: nodes = 0.88 x count). Mixed content can exceed it
// (append takes over), containers without text undershoot it
// (Builder.Document keeps at most 1.25x), and a hostile run of '<'
// reserves no more than the node per three bytes that a parsable body
// of its size can force anyway.
func parse(r io.Reader, lt, srcLen int) (*Document, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilderCap(min(lt, srcLen/3))
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

// WriteXML serializes the document back to XML on w, with the given indent
// ("" for compact output). Serialization is lossless up to whitespace
// normalization, which the tests rely on for round-trip checks.
func (d *Document) WriteXML(w io.Writer, indent string) error {
	return d.writeNode(w, d.Root(), indent, 0)
}

func (d *Document) writeNode(w io.Writer, id NodeID, indent string, depth int) error {
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
		fmt.Fprintf(&ab, " %s=%q", a.Name, a.Value)
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
		if err := d.writeNode(w, c, indent, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>%s", pad, n.Tag, nl)
	return err
}

// XMLString renders the document as an indented XML string.
func (d *Document) XMLString() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb, "  ")
	return sb.String()
}

// validXMLName approximates the XML Name production closely enough to
// guarantee round-trippable output: a letter or underscore followed by
// letters, digits, '-', '_' or '.'.
func validXMLName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := unicode.IsLetter(r) || r == '_'
		if i == 0 {
			if !letter {
				return false
			}
			continue
		}
		if !letter && !unicode.IsDigit(r) && r != '-' && r != '.' {
			return false
		}
	}
	return true
}

func escapeText(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
