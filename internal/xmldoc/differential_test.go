package xmldoc_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

func xmarkXML(t testing.TB, size int) string {
	var sb strings.Builder
	if err := xmark.GenerateSized(xmark.Config{Seed: 42}, size).WriteXML(&sb, ""); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// FuzzParseMatchesOracle: the scanner accepts exactly what the
// encoding/xml token loop accepts, and builds the same Document.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, s := range xmldoc.ParseSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		`<!DOCTYPE a [<!ENTITY e "x>y"> <!-- <a> --> <!ELEMENT a (#PCDATA)>]><a>t</a>`,
		`<a>&#x41;&#65;</a>`, `<a>&nbsp;</a>`, `<a>x ]]> y</a>`,
		"<a\xff/>", "<a>\xff</a>", "<a x=\"\xff\"/>",
		`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
		"\xef\xbb\xbf<a/>",
		`<p:a xmlns="u" xmlns:p="v" p:x="1" y="2"><p:b xmlns:q="xmlns" q:z="3"/></p:a>`,
		"<a v=\"&lt;\n\t\"/>",
		`<a><b></c></a>`, `<a/>trailing text`, `<a></a>`,
		"<a>one\r\ntwo\rthree&#13;\n</a>", `<![CDATA[x]]><a/>`, `<a><!DOCTYPE>x</a>`,
		xmarkXML(f, 4096)[:2048],
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := xmldoc.ParseString(src)
		want, wantErr := xmldoc.OracleParse(src)
		if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("%v\nsrc: %q", err, src)
		}
		got, gotErr = xmldoc.ParseBytes([]byte(src))
		if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("ParseBytes: %v\nsrc: %q", err, src)
		}
	})
}

// TestFingerprintMatchesOracle: on seeded XMark the scanner's document
// is the oracle's, node for node and by content fingerprint.
func TestFingerprintMatchesOracle(t *testing.T) {
	for _, size := range []int{xmark.PaperSizes[0], xmark.PaperSizes[2], xmark.PaperSizes[5]} {
		src := xmarkXML(t, size)
		got, gotErr := xmldoc.ParseBytes([]byte(src))
		want, wantErr := xmldoc.OracleParse(src)
		if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		if g, w := index.ContentFingerprint(index.Build(got, text.DefaultPipeline)),
			index.ContentFingerprint(index.Build(want, text.DefaultPipeline)); g != w {
			t.Errorf("%d bytes: fingerprint %s, oracle %s", size, g, w)
		}
	}
}

// markup is the alphabet of TestParseMatchesOracleOnFragments: the
// decoder's corner cases, one fragment each, for random concatenation.
var markup = []string{
	"<a>", "</a>", "<b>", "</b>", "<a/>", "<p:a>", "</p:a>", `<a x="1">`, `<a x='&lt;'>`, `<b xmlns:p="xmlns" p:y="2">`,
	`<b xmlns:q="xmlns">`, `<c q:z="1" q:w='2'/>`, `<b xmlns="u" xmlns:p='v'>`, `<a p:xmlns="1">`, `<a xmlns:="1">`,
	"text", " ", "\n", "\r", "\r\n", "\t", "&lt;", "&gt;", "&amp;", "&apos;", "&quot;", "&#65;", "&#x41;", "&#X41;", "&#;",
	"&#x;", "&#0;", "&#13;", "&#xD800;", "&#x10FFFF;", "&#x110000;", "&#99999999999999999999;", "&nbsp;", "&", ";", "]]>",
	"]]", ">", "]", "<![CDATA[", "<![CDATA[x]]>", "<![CDATA[ ]]>", "<!--", "-->", "<!-- c -->", "<!---->", "<!--->", "--",
	"<?", "?>", "<?pi x?>", `<?xml version="1.0"?>`, "<?xml version='1.1'?>", `<?xml encoding="latin1"?>`,
	`<?xml encoding="UTF-8"?>`, `<?xml versionversion="2"?>`, `<?xml version=version="1.1"?>`, "<!DOCTYPE a>",
	"<!DOCTYPE a [<!ENTITY e 'x'>]>", "<!DOCTYPE a [<!-- > -->]>", "<!>", "<!x <>>", `<!">">`, "<!-", "<![", "<![CDAT",
	"<", "</", "<a", "<a ", "<a x", "<a x=", `<a x="`, `"`, "'", "/>", "=", "\xff", "\u00b7", "\u00c0", "\u00aa", "\u0300",
	"\u3007", "\ufffe", "\ufeff", "\u00a0", "\u3000", "\x00", "\x1f", "\x7f", "<\u00c0>", "</\u00c0>", "<1a>", "<-a>",
	"<_a>", "<:a>", "</:a>", "<a:>", "</a:>", "<a:b:c>", "<?a:b:c d?>", `<a 1x="1">`, `<a x="1"y="2">`, `<a x="1" x="2">`,
	"<a\n\tx\r=\n'v'\n>", "</a >", "</a\n>", "</ a>", "<\u00b7a>", `<a x="]]>">`, `<a x="a<b">`, "<a x=\"&#13;\r\n\">",
}

// TestParseMatchesOracleOnFragments runs the differential on random
// strings of markup fragments, so that go test covers the corner cases
// without a fuzzing run.
func TestParseMatchesOracleOnFragments(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		if r.Intn(2) == 0 {
			sb.WriteString("<r>")
		}
		for n := 1 + r.Intn(8); n > 0; n-- {
			sb.WriteString(markup[r.Intn(len(markup))])
		}
		if r.Intn(2) == 0 {
			sb.WriteString("</r>")
		}
		src := sb.String()
		got, gotErr := xmldoc.ParseString(src)
		want, wantErr := xmldoc.OracleParse(src)
		if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("%v\nsrc: %q", err, src)
		}
	}
}
