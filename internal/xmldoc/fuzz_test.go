package xmldoc

import (
	"reflect"
	"testing"
)

// parseSeeds seed both XML fuzz targets.
var parseSeeds = []string{
	`<a/>`,
	`<a><b>text</b><c x="1"/></a>`,
	`<dealer><car><price>500</price></car></dealer>`,
	`<a>x &lt; y &amp; z</a>`,
	`<a xmlns:n="u"><n:b/></a>`,
	`<a><b></a></b>`, `<a>`, ``, `text only`, `<a><![CDATA[cd]]></a>`,
	`<a><!-- comment --><?pi data?><b/></a>`,
	"<a>\xff\xfe</a>",
	`<a v="&#13;&quot;&lt;">x&#13;y</a>`,
}

// FuzzParseXML checks the XML front end never panics and that accepted
// documents round-trip through the serializer: the same number of
// nodes and the same text nodes and attributes, in order.
func FuzzParseXML(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if err != nil {
			return
		}
		if err := d.validate(); err != nil {
			t.Fatalf("accepted document invalid: %v\nsrc: %q", err, src)
		}
		d2, err := ParseString(d.XMLString())
		if err != nil {
			t.Fatalf("serializer output unparseable: %v\nsrc: %q\nout: %q", err, src, d.XMLString())
		}
		if d.Len() != d2.Len() {
			t.Fatalf("round trip changed node count: %d -> %d\nsrc: %q", d.Len(), d2.Len(), src)
		}
		if a, b := content(d), content(d2); !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip changed text or attributes: %q -> %q\nsrc: %q", a, b, src)
		}
	})
}

// content lists a document's attributes (as name=value) and text
// nodes in document order.
func content(d *Document) []string {
	var out []string
	for id := NodeID(0); int(id) < d.Len(); id++ {
		for i := range d.NumAttrs(id) {
			a := d.AttrAt(id, i)
			out = append(out, a.Name+"="+a.Value)
		}
		if d.Kind(id) == Text {
			out = append(out, d.Text(id))
		}
	}
	return out
}
