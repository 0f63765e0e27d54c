package xmldoc

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// oracleParse is the parser the scanner replaced, kept as its
// reference: encoding/xml's strict token loop driving the Builder.
// ParseString must accept exactly what it accepts and build the same
// Document.
func oracleParse(src string) (*Document, error) {
	return oracleParseReader(strings.NewReader(src), strings.Count(src, "<"), len(src))
}

func oracleParseReader(r io.Reader, lt, srcLen int) (*Document, error) {
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

// sameDocument reports the first difference between two parses of one
// source: acceptance, then node by node every field, then the text
// length.
func sameDocument(got, want *Document, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("scanner error %v, oracle error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d nodes, oracle %d", got.Len(), want.Len())
	}
	for i := range want.nodes {
		g, w := &got.nodes[i], &want.nodes[i]
		if g.Kind != w.Kind || g.Tag != w.Tag || g.Text != w.Text || g.Parent != w.Parent || g.First != w.First ||
			g.Next != w.Next || g.Start != w.Start || g.End != w.End || g.Level != w.Level || !sameAttrs(g.Attrs, w.Attrs) {
			return fmt.Errorf("node %d: %+v, oracle %+v", i, *g, *w)
		}
	}
	if got.TotalTextLen() != want.TotalTextLen() {
		return fmt.Errorf("TotalTextLen %d, oracle %d", got.TotalTextLen(), want.TotalTextLen())
	}
	return nil
}

func sameAttrs(a, b []Attr) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
