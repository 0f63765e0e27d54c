package xmldoc

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Parse reads r to the end and parses what it read like ParseBytes.
func Parse(r io.Reader) (*Document, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmldoc: parse: %w", err)
	}
	return ParseBytes(src)
}

// ParseBytes parses an XML document held in a byte slice, which it
// does not retain and which must not change while it runs.
func ParseBytes(src []byte) (*Document, error) {
	return ParseString(unsafe.String(unsafe.SliceData(src), len(src)))
}

// ParseString parses an XML document held in a string. Namespaces are
// flattened to local names (the paper's data model is namespace-free);
// comments, processing instructions and directives are skipped;
// character data is trimmed and whitespace-only runs are dropped.
//
// It sizes the columns from the source's counts, so each is allocated
// once and, on well-formed input, never regrows:
//   - a start tag, an end tag and a CDATA section each cost one '<', and
//     outside mixed content a text node is followed by its parent's end
//     tag, so the '<' count bounds elements + text nodes (XMark: nodes =
//     0.88 x count);
//   - every attribute costs an '=', as does some character data;
//   - every '<' opens at least three bytes of markup ("<a>"), and
//     decoding never lengthens text, so the rest bounds the character
//     data and attribute values — but for '<' inside a CDATA section.
//
// Each is a capacity, not a limit (mixed content and CDATA can exceed
// theirs and append takes over) and not a lease (Builder.Document keeps
// at most 1.25x), and a hostile run of '<' or '=' reserves no more than
// the node per three bytes, or the attribute per four (b=""), that a
// parsable body of its size can force anyway.
func ParseString(src string) (*Document, error) {
	lt := strings.Count(src, "<")
	s := scanner{
		Builder: newBuilder(min(lt, len(src)/3), min(strings.Count(src, "="), len(src)/4), max(len(src)-3*lt, 0)),
		src:     src,
		qnames:  map[string]uint32{},
	}
	if err := s.scan(); err != nil {
		return nil, fmt.Errorf("xmldoc: parse: line %d: %w", 1+strings.Count(src[:s.pos], "\n"), err)
	}
	return s.Document()
}

var errEOF = errors.New("unexpected EOF")

// scanner is one pass over the source that accepts exactly what
// encoding/xml's strict Decoder accepts (the tests keep that decoder's
// token loop as oracleParse) and appends nodes straight onto the
// Builder's columns, copying kept character data and attribute values
// into its arena token by token.
type scanner struct {
	Builder
	src     string
	pos     int
	open    []string          // qualified names of the open elements
	qnames  map[string]uint32 // qualified name as written → its local name's ID, 0 if dropped
	ns      []nsBinding
	pending []Attr // the start tag's attributes: qualified names, values still views
	buf     []byte // the token's character data that needed decoding
}

// nsBinding is an xmlns:prefix declaration on the open element at depth.
// Whether it binds prefix to the name space "xmlns" is settled when it
// is read: a decoded value is a view of buf, which the next token reuses.
type nsBinding struct {
	prefix string
	xmlns  bool
	depth  int
}

func (s *scanner) scan() error {
	for s.pos < len(s.src) {
		// The last token's decoded text is in the arena by now.
		s.buf = s.buf[:0]
		var err error
		if s.src[s.pos] != '<' {
			err = s.chars()
		} else if s.pos++; s.pos == len(s.src) {
			return errEOF
		} else {
			switch s.src[s.pos] {
			case '/':
				s.pos++
				err = s.endTag()
			case '?':
				s.pos++
				err = s.procInst()
			case '!':
				s.pos++
				err = s.bang()
			default:
				err = s.startTag()
			}
		}
		if err != nil {
			return err
		}
	}
	if len(s.open) > 0 {
		return errEOF
	}
	return nil
}

// chars scans character data up to the next '<'. It is checked at any
// depth but kept only inside the root.
func (s *scanner) chars() error {
	end := strings.IndexByte(s.src[s.pos:], '<')
	if end < 0 {
		end = len(s.src) - s.pos
	}
	raw := s.src[s.pos : s.pos+end]
	if strings.Contains(raw, "]]>") {
		return errors.New("unescaped ]]> not in CDATA section")
	}
	t, err := s.decode(raw, true)
	if err != nil {
		return err
	}
	s.pos += end
	s.text(t)
	return nil
}

func (s *scanner) text(t string) {
	if len(s.stack) == 0 {
		return
	}
	if t = strings.TrimSpace(t); t != "" {
		s.Builder.text(t)
	}
}

// decode resolves the predefined entities and character references
// (when refs), folds "\r\n" and a lone '\r' to '\n', and checks that the
// result is UTF-8 made of XML characters. Text that needs none of it is
// returned as it is; the rest is decoded into buf.
func (s *scanner) decode(raw string, refs bool) (string, error) {
	if !strings.Contains(raw, "\r") && (!refs || !strings.Contains(raw, "&")) {
		return raw, checkChars(raw)
	}
	start := len(s.buf)
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '\r':
			s.buf = append(s.buf, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		case c == '&' && refs:
			r, n := reference(raw[i:])
			if n == 0 {
				return "", fmt.Errorf("invalid character entity %.12q", raw[i:])
			}
			s.buf = utf8.AppendRune(s.buf, r)
			i += n - 1
		default:
			s.buf = append(s.buf, c)
		}
	}
	// buf only grows within a token: a regrowth leaves the token's
	// earlier views on the old array. scan empties it between tokens.
	t := unsafe.String(&s.buf[start], len(s.buf)-start)
	return t, checkChars(t)
}

var predefined = [...]struct {
	name string
	r    rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// reference decodes the entity or character reference s starts with
// ("&lt;", "&#65;", "&#x41;") and returns its length, 0 if invalid.
func reference(s string) (rune, int) {
	if !strings.HasPrefix(s, "&#") {
		for _, e := range predefined {
			if strings.HasPrefix(s[1:], e.name) {
				return e.r, 1 + len(e.name)
			}
		}
		return 0, 0
	}
	i, base := 2, 10
	if strings.HasPrefix(s[2:], "x") {
		i, base = 3, 16
	}
	start, v := i, 0
	for ; i < len(s); i++ {
		d := strings.IndexByte("0123456789abcdefABCDEF", s[i])
		if d >= 16 {
			d -= 6
		}
		if d < 0 || d >= base {
			break
		}
		v = min(v*base+d, unicode.MaxRune+1)
	}
	if i == start || i == len(s) || s[i] != ';' || v > unicode.MaxRune {
		return 0, 0
	}
	return rune(v), i + 1
}

// checkChars rejects bytes that are not UTF-8 and runes outside XML's
// Char production.
func checkChars(t string) error {
	for i := 0; i < len(t); {
		if c := t[i]; c >= ' ' && c < utf8.RuneSelf || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(t[i:])
		if r == utf8.RuneError && n == 1 {
			return errors.New("invalid UTF-8")
		}
		if r < ' ' || r > 0xD7FF && r < 0xE000 || r > 0xFFFD && r < 0x10000 {
			return fmt.Errorf("illegal character code %U", r)
		}
		i += n
	}
	return nil
}

// name scans a run of nameBytes.
func (s *scanner) name() string {
	i := s.pos
	for i < len(s.src) && nameBytes[s.src[i]] {
		i++
	}
	name := s.src[s.pos:i]
	s.pos = i
	return name
}

// local resolves a qualified name as written to the ID of its interned
// local name, 0 when validXMLName rejects the local part. A name is
// checked and copied once per document, whatever its count.
func (s *scanner) local(qname string) (uint32, error) {
	if id, ok := s.qnames[qname]; ok {
		return id, nil
	}
	if !isName(qname) || strings.Count(qname, ":") > 1 {
		return 0, fmt.Errorf("invalid XML name %q", qname)
	}
	l := qname
	if prefix, loc, ok := strings.Cut(qname, ":"); ok && prefix != "" && loc != "" {
		l = loc
	}
	var id uint32
	if validXMLName(l) {
		id = s.intern(l)
	}
	s.qnames[qname] = id
	return id, nil
}

func (s *scanner) space() {
	for s.pos < len(s.src) && (s.src[s.pos] == ' ' || s.src[s.pos] == '\n' || s.src[s.pos] == '\t' || s.src[s.pos] == '\r') {
		s.pos++
	}
}

func (s *scanner) skip(c byte) bool {
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

func (s *scanner) startTag() error {
	qname := s.name()
	tag, err := s.local(qname)
	if err != nil {
		return err
	}
	if tag == 0 {
		return fmt.Errorf("invalid element name %q", qname)
	}
	ns0, empty := len(s.ns), false
	s.pending = s.pending[:0]
	for {
		s.space()
		if s.skip('>') {
			break
		}
		if s.skip('/') {
			if !s.skip('>') {
				return errors.New("expected /> in element")
			}
			empty = true
			break
		}
		if err := s.attr(); err != nil {
			return err
		}
	}
	if _, err := s.start(tag); err != nil {
		return err
	}
	// attr left qualified names: resolve them now that every xmlns
	// declaration of this element is in scope.
	for _, a := range s.pending {
		if prefix, _, ok := strings.Cut(a.Name, ":"); !ok || !s.boundToXMLNS(prefix) {
			s.addAttr(s.qnames[a.Name], a.Value)
		}
	}
	if empty {
		s.leave()
		s.ns = s.ns[:ns0]
		return nil
	}
	s.open = append(s.open, qname)
	return nil
}

// attr scans one attribute. An xmlns declaration, or a name whose local
// part cannot be re-serialized, is checked like the rest and dropped.
func (s *scanner) attr() error {
	if s.pos == len(s.src) {
		return errEOF
	}
	qname := s.name()
	name, err := s.local(qname)
	if err != nil {
		return err
	}
	s.space()
	if !s.skip('=') {
		return errors.New("attribute name without = in element")
	}
	s.space()
	if s.pos == len(s.src) || s.src[s.pos] != '"' && s.src[s.pos] != '\'' {
		return errors.New("unquoted or missing attribute value in element")
	}
	end := strings.IndexByte(s.src[s.pos+1:], s.src[s.pos])
	if end < 0 {
		return errEOF
	}
	raw := s.src[s.pos+1 : s.pos+1+end]
	if strings.Contains(raw, "<") {
		return errors.New("unescaped < inside quoted string")
	}
	v, err := s.decode(raw, true)
	if err != nil {
		return err
	}
	s.pos += end + 2
	switch prefix, local, ok := strings.Cut(qname, ":"); {
	case ok && prefix == "xmlns" && local != "":
		s.ns = append(s.ns, nsBinding{prefix: local, xmlns: v == "xmlns", depth: len(s.stack)})
	case name != 0 && s.names[name] != "xmlns":
		s.pending = append(s.pending, Attr{Name: qname, Value: v})
	}
	return nil
}

// boundToXMLNS reports whether prefix's innermost declaration binds it
// to the name space "xmlns", which makes the decoder report its
// attributes as xmlns declarations.
func (s *scanner) boundToXMLNS(prefix string) bool {
	for i := len(s.ns) - 1; i >= 0 && prefix != "xml"; i-- {
		if s.ns[i].prefix == prefix {
			return s.ns[i].xmlns
		}
	}
	return false
}

func (s *scanner) endTag() error {
	qname := s.name()
	s.space()
	top := len(s.open) - 1
	if !s.skip('>') || top < 0 || s.open[top] != qname {
		return fmt.Errorf("unexpected end element </%s>", qname)
	}
	s.leave()
	s.open = s.open[:top]
	for len(s.ns) > 0 && s.ns[len(s.ns)-1].depth == top {
		s.ns = s.ns[:len(s.ns)-1]
	}
	return nil
}

// procInst skips a processing instruction; an XML declaration must
// say version 1.0 and UTF-8, if anything.
func (s *scanner) procInst() error {
	target := s.name()
	if !isName(target) {
		return errors.New("expected target name after <?")
	}
	s.space()
	end := strings.Index(s.src[s.pos:], "?>")
	if end < 0 {
		return errEOF
	}
	body := s.src[s.pos : s.pos+end]
	s.pos += end + 2
	if target == "xml" {
		if v := pseudoAttr(body, "version"); v != "" && v != "1.0" {
			return fmt.Errorf("unsupported version %q", v)
		}
		if e := pseudoAttr(body, "encoding"); e != "" && !strings.EqualFold(e, "utf-8") {
			return fmt.Errorf("unsupported encoding %q", e)
		}
	}
	return nil
}

// pseudoAttr finds name="value" or name='value' in an XML declaration
// the way the decoder does: the first occurrence of name= followed by
// a quote, searching on past each one that is not.
func pseudoAttr(body, name string) string {
	p := name + "="
	for {
		k := strings.Index(body, p)
		if k < 0 || k+len(p) >= len(body) {
			return ""
		}
		q := body[k+len(p)]
		body = body[k+len(p)+1:]
		if q == '"' || q == '\'' {
			if j := strings.IndexByte(body, q); j >= 0 {
				return body[:j]
			}
			return ""
		}
	}
}

// bang scans what follows "<!": a comment, a CDATA section (a text node
// of its own) or a directive such as <!DOCTYPE …>.
func (s *scanner) bang() error {
	rest := s.src[s.pos:]
	switch {
	case strings.HasPrefix(rest, "--"):
		end := strings.Index(rest[2:], "--")
		if end < 0 {
			return errEOF
		}
		if !strings.HasPrefix(rest[2+end+2:], ">") {
			return errors.New(`invalid sequence "--" not allowed in comments`)
		}
		s.pos += 2 + end + 3
	case strings.HasPrefix(rest, "[CDATA["):
		end := strings.Index(rest[7:], "]]>")
		if end < 0 {
			return errEOF
		}
		t, err := s.decode(rest[7:7+end], false)
		if err != nil {
			return err
		}
		s.pos += 7 + end + 3
		s.text(t)
	case rest == "" || rest[0] == '-' || rest[0] == '[':
		return errors.New("invalid <!- or <![ sequence")
	default:
		return s.directive()
	}
	return nil
}

// directive skips a directive up to its unquoted '>' at nesting depth
// 0: '<' nests, a comment inside is skipped whole, and, as in the
// decoder, the byte after "<!" is never markup.
func (s *scanner) directive() error {
	depth, quote := 0, byte(0)
	for i := s.pos + 1; i < len(s.src); i++ {
		switch c := s.src[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>' && depth == 0:
			s.pos = i + 1
			return nil
		case c == '>':
			depth--
		case c == '<' && strings.HasPrefix(s.src[i+1:], "!--"):
			end := strings.Index(s.src[i+4:], "-->")
			if end < 0 {
				return errEOF
			}
			i += 4 + end + 2
		case c == '<':
			depth++
		}
	}
	return errEOF
}

// WriteXML serializes the document back to XML on w, with the given indent
// ("" for compact output). Serialization is lossless up to whitespace
// normalization, which the tests rely on for round-trip checks.
func (d *Document) WriteXML(w io.Writer, indent string) error {
	return d.writeNode(w, d.Root(), indent, 0)
}

func (d *Document) writeNode(w io.Writer, id NodeID, indent string, depth int) error {
	pad := ""
	nl := ""
	if indent != "" {
		pad = strings.Repeat(indent, depth)
		nl = "\n"
	}
	if d.kind[id] == Text {
		if _, err := fmt.Fprintf(w, "%s%s%s", pad, escapeText(d.Text(id)), nl); err != nil {
			return err
		}
		return nil
	}
	tag := d.Tag(id)
	var ab strings.Builder
	for i := range d.NumAttrs(id) {
		a := d.AttrAt(id, i)
		fmt.Fprintf(&ab, ` %s="%s"`, a.Name, attrEscaper.Replace(a.Value))
	}
	first := d.FirstChild(id)
	if first == InvalidNode {
		_, err := fmt.Fprintf(w, "%s<%s%s/>%s", pad, tag, ab.String(), nl)
		return err
	}
	// Compact single-text-child elements onto one line for readability.
	if d.kind[first] == Text && d.NextSibling(first) == InvalidNode {
		_, err := fmt.Fprintf(w, "%s<%s%s>%s</%s>%s",
			pad, tag, ab.String(), escapeText(d.Text(first)), tag, nl)
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s%s>%s", pad, tag, ab.String(), nl); err != nil {
		return err
	}
	for c := first; c != InvalidNode; c = d.NextSibling(c) {
		// Adjacent text siblings (character data the source split with a
		// comment, PI or directive) stay two nodes when read back.
		if d.kind[c] == Text && d.kind[c-1] == Text && d.parent[c-1] == id {
			if _, err := io.WriteString(w, "<!---->"); err != nil {
				return err
			}
		}
		if err := d.writeNode(w, c, indent, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>%s", pad, tag, nl)
	return err
}

// XMLString renders the document as an indented XML string.
func (d *Document) XMLString() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb, "  ")
	return sb.String()
}

var (
	// A '\r' is escaped because a reader folds a literal one to '\n'.
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;", `"`, "&quot;")
)

func escapeText(s string) string {
	if !strings.ContainsAny(s, "<>&\r") {
		return s
	}
	return textEscaper.Replace(s)
}
