package xmldoc_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/inex"
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
		`<a xmlns:q="&#120;mlns"><c v="&amp;&amp;&amp;&amp;&amp;"/><c q:z="1"/></a>`,
		`<a xmlns:q="&#121;mlns"><c v="xmlns&amp;"/><c q:z="1"/></a>`,
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

// TestFingerprintMatchesOracle: on seeded XMark and the INEX
// collections, the content fingerprint is the one the node-array
// document hashed to, so result-cache keys survive the columns. The
// values are pinned from that document.
func TestFingerprintMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		size int
		fp   string
	}{
		{xmark.PaperSizes[0], "e1958a752f4a4aca9c17a6659507cd0c"},
		{xmark.PaperSizes[2], "cd802088350b340654f2bff5a33edbcc"},
		{xmark.PaperSizes[5], "6419cd7f77c021b66323fa837b04df67"},
		{xmark.PaperSizes[6], "452846ebf5c085fa8a43f2c8b30016ca"},
	} {
		d, err := xmldoc.ParseBytes([]byte(xmarkXML(t, c.size)))
		if err != nil {
			t.Fatal(err)
		}
		if got := index.ContentFingerprint(index.Build(d, text.DefaultPipeline)); got != c.fp {
			t.Errorf("%d bytes: fingerprint %s, node-array document %s", c.size, got, c.fp)
		}
	}
	inexFP := map[int]string{
		130: "ed11abd3d13a29d80ebd34241d0e154a", 131: "9dd860c7b5c60e88c49013af38a52197",
		132: "d078c5210644d871f9800d5cfc4cf91b", 140: "ec195c27d977acfcdb4b93ea5c1d8df6",
		141: "7c69ff147206a04df78d69af07bd01d5", 142: "6f7162292076a6f85dfdca8fff1e7c56",
		145: "aa48aa83e1bd02e29e03bb757f4c7304", 151: "c812082bea91c29dbe65945df562bc03",
	}
	for _, spec := range inex.Topics() {
		doc, _ := inex.BuildCollection(spec, 1)
		if got := index.ContentFingerprint(index.Build(doc, text.DefaultPipeline)); got != inexFP[spec.ID] {
			t.Errorf("INEX topic %d: fingerprint %s, node-array document %s", spec.ID, got, inexFP[spec.ID])
		}
	}
}

// TestColumnsMatchOracle: every accessor of the columnar document
// answers, node by node, as the node-array document does — for the
// scanner's parse and for the generators' Builder output, on seeded
// XMark from 101 KB to 5.7 MB and on the INEX collections, and for the
// scanner's parse of FuzzParseXML's corpus. (The fragment and fuzz
// differentials below hold the same on the decoder's corner cases.)
func TestColumnsMatchOracle(t *testing.T) {
	sizes := xmark.PaperSizes[:7]
	if raceEnabled {
		sizes = sizes[:6] // the race detector makes 5.7 MB take minutes
	}
	check := func(name string, built *xmldoc.Document) {
		var sb strings.Builder
		if err := built.WriteXML(&sb, ""); err != nil {
			t.Fatal(err)
		}
		src := sb.String()
		want, wantErr := xmldoc.OracleParse(src)
		if err := xmldoc.SameDocument(built, want, nil, wantErr); err != nil {
			t.Fatalf("%s, as built: %v", name, err)
		}
		got, gotErr := xmldoc.ParseString(src)
		if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("%s, parsed: %v", name, err)
		}
	}
	for _, size := range sizes {
		check(xmark.SizeLabel(size)+" XMark", xmark.GenerateSized(xmark.Config{Seed: 42}, size))
	}
	for _, spec := range inex.Topics() {
		doc, _ := inex.BuildCollection(spec, 1)
		check(fmt.Sprintf("INEX topic %d", spec.ID), doc)
	}
	// FuzzParseXML's corpus (its seeds are FuzzParseMatchesOracle's).
	files, err := filepath.Glob("testdata/fuzz/FuzzParseXML/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzParseXML corpus: %v files, %v", len(files), err)
	}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, gotErr := xmldoc.ParseString(src)
		want, wantErr := xmldoc.OracleParse(src)
		if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestDocumentBytesPerNode holds the columns' footprint: a parsed 1 MB
// XMark document retains at most 48 bytes a node, text and slack
// included (the node-array document retained 117).
func TestDocumentBytesPerNode(t *testing.T) {
	src := xmarkXML(t, xmark.PaperSizes[5])
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := xmldoc.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(d.Len())
	runtime.KeepAlive(d)
	runtime.KeepAlive(src) // counted in before, so live through after
	if perNode > 48 {
		t.Errorf("a %d-node document retains %.1f B per node, ceiling 48", d.Len(), perNode)
	}
	t.Logf("%d nodes, %.1f B retained per node", d.Len(), perNode)
}

// TestSnapshotV1Fixture pins format v1 against a snapshot the
// node-array document wrote (a 20 KB seeded XMark document): Load
// restores every accessor the oracle reads from it, and Save of the
// columns — loaded or freshly parsed — writes the fixture byte for byte.
func TestSnapshotV1Fixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1-xmark-20k.gob")
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := xmldoc.Load(bytes.NewReader(raw))
	want, wantErr := xmldoc.OracleLoad(bytes.NewReader(raw))
	if err := xmldoc.SameDocument(got, want, gotErr, wantErr); err != nil || gotErr != nil {
		t.Fatalf("Load: %v %v", gotErr, err)
	}
	parsed, err := xmldoc.ParseString(xmarkXML(t, 20*1024))
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*xmldoc.Document{"loaded": got, "parsed": parsed} {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Errorf("Save of the %s document: %d bytes differ from the %d-byte v1 fixture", name, buf.Len(), len(raw))
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
	`<b xmlns:q="&#120;mlns">`, `<b xmlns:q="&#121;mlns">`, `<c v="&amp;&amp;&amp;&amp;&amp;"/>`, `<c v="xmlns&amp;"/>`,
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
