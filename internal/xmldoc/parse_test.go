package xmldoc

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestParseInternsNames: every node carrying a name shares the first
// copy of it, so a document's tag and attribute-name strings number its
// distinct names, not its nodes.
func TestParseInternsNames(t *testing.T) {
	d := mustParse(t, `<r><car vin="1"><price>5</price></car><car vin="2"><price>7</price></car><price>9</price></r>`)
	cars, prices := d.ElementsByTag("car"), d.ElementsByTag("price")
	if len(cars) != 2 || len(prices) != 3 {
		t.Fatalf("cars %v, prices %v", cars, prices)
	}
	same := func(a, b string) bool { return a == b && unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(d.Tag(cars[0]), d.Tag(cars[1])) {
		t.Error("two car elements hold two copies of their tag")
	}
	if !same(d.Tag(prices[0]), d.Tag(prices[2])) {
		t.Error("price elements at different depths hold two copies of their tag")
	}
	if !same(d.AttrAt(cars[0], 0).Name, d.AttrAt(cars[1], 0).Name) {
		t.Error("two vin attributes hold two copies of their name")
	}
}

// TestParseTextRows pins what character data becomes, for the scanner
// and its oracle alike: whitespace-only runs vanish, padding is
// trimmed, entities are resolved, and a CDATA section (or a run split
// by a comment) is a text node of its own.
func TestParseTextRows(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string // the document's text nodes, in order
	}{
		{"<a> \n\t </a>", nil},
		{"<a>  padded  text \n</a>", []string{"padded  text"}},
		{"<a>  nbsp and   em </a>", []string{"nbsp and   em"}},
		{"<a>x &lt; y &amp; z &#65;</a>", []string{"x < y & z A"}},
		{"<a> &#32; </a>", nil},
		{"<a><![CDATA[ <cd> & ]]></a>", []string{"<cd> &"}},
		{"<a>pre <![CDATA[mid]]> post</a>", []string{"pre", "mid", "post"}},
		{"<a><![CDATA[   ]]></a>", nil},
		{"<a> one <b> two </b> three </a>", []string{"one", "two", "three"}},
		{"  <a>in</a>  ", []string{"in"}},
		{"<a>0<!-- -->0</a>", []string{"0", "0"}},
		{"<a>\r\n one\r\ntwo\rthree&#13;. </a>", []string{"one\ntwo\nthree\r."}},
	} {
		for name, parse := range map[string]func() (*Document, error){
			"ParseString": func() (*Document, error) { return ParseString(tc.src) },
			"ParseBytes":  func() (*Document, error) { return ParseBytes([]byte(tc.src)) },
			"Parse":       func() (*Document, error) { return Parse(strings.NewReader(tc.src)) },
		} {
			d, err := parse()
			if err != nil {
				t.Fatalf("%s(%q): %v", name, tc.src, err)
			}
			var got []string
			total := 0
			for id := NodeID(0); int(id) < d.Len(); id++ {
				if d.Kind(id) == Text {
					got = append(got, d.Text(id))
					total += len(d.Text(id))
				}
			}
			if !reflect.DeepEqual(got, tc.want) || d.textLen() != total {
				t.Errorf("%s(%q): text nodes %q (text length %d), want %q", name, tc.src, got, d.textLen(), tc.want)
			}
			o, oerr := oracleParse(tc.src)
			if err := sameDocument(d, o, nil, oerr); err != nil {
				t.Errorf("%s(%q): %v", name, tc.src, err)
			}
		}
	}
}

// TestParseArenaSizing: the '<' count is a capacity, not a limit and
// not a lease. Mixed content outgrows it and still parses; containers
// without text undershoot it and the document keeps at most 1.25x of
// what it uses, in every column; a hostile run of '<' is refused like
// any other malformed body.
func TestParseArenaSizing(t *testing.T) {
	mixed := "<p>" + strings.Repeat("t<b/>", 500) + "t</p>" // 501 '<', 1002 nodes
	d := mustParse(t, mixed)
	if d.Len() != 1002 || d.validate() != nil {
		t.Fatalf("mixed content: %d nodes, validate: %v", d.Len(), d.validate())
	}
	nested := strings.Repeat("<a>", 600) + strings.Repeat("</a>", 600) // 1200 '<', 600 nodes
	for name, src := range map[string]string{"mixed": mixed, "nested": nested, "leafy": "<r>" + strings.Repeat("<a>x</a>", 400) + "</r>"} {
		d := mustParse(t, src)
		for col, c := range map[string][2]int{
			"kind": {cap(d.kind), len(d.kind)}, "tag": {cap(d.tag), len(d.tag)}, "parent": {cap(d.parent), len(d.parent)},
			"post": {cap(d.post), len(d.post)}, "level": {cap(d.level), len(d.level)}, "off": {cap(d.off), len(d.off)},
			"attrOff": {cap(d.attrOff), len(d.attrOff)},
		} {
			if c[0] > c[1]+c[1]/4 {
				t.Errorf("%s: column %s keeps cap %d for %d entries (> 1.25x)", name, col, c[0], c[1])
			}
		}
	}
	if d, err := ParseString("<r>" + strings.Repeat("<", 1<<16)); err == nil || d != nil {
		t.Error("a run of '<' after a root parsed")
	}
	if _, err := ParseString(strings.Repeat("<", 1<<16)); err == nil {
		t.Error("a run of '<' parsed")
	}
	// '=' is character data too: the attribute table reserves no more
	// than one attribute (8 B) per four source bytes, 2 B per byte.
	eq := "<a>" + strings.Repeat("=", 1<<18) + "</a>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = mustParse(t, eq)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(12*len(eq)) {
		t.Errorf("a run of '=' allocated %d B for a %d B body (> 12x)", got, len(eq))
	}
	if d.Len() != 2 {
		t.Errorf("a run of '=': %d nodes, want 2", d.Len())
	}
}
