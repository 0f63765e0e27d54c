package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/text"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// oracleIndex is what Build produced before the flat write path: one
// appended slice per tag and per term behind two maps.
type oracleIndex struct {
	tags      map[string][]xmldoc.NodeID
	allElems  []xmldoc.NodeID
	positions map[string][]int32
	seqNode   []xmldoc.NodeID
	numTokens int
	guide     *Dataguide
}

// oracleBuild is that Build, verbatim but for reading nodes through the
// document's accessors: one Walk, a []Token per text
// node (Pipeline.Tokenize is held to its own oracle in internal/text),
// an append per posting.
func oracleBuild(doc *xmldoc.Document, pipe text.Pipeline) *oracleIndex {
	ix := &oracleIndex{
		tags:      make(map[string][]xmldoc.NodeID),
		positions: make(map[string][]int32),
	}
	gb := newGuideBuilder(doc.Len())
	doc.Walk(func(id xmldoc.NodeID) bool {
		switch tag := doc.Tag(id); doc.Kind(id) {
		case xmldoc.Element:
			ix.tags[tag] = append(ix.tags[tag], id)
			ix.allElems = append(ix.allElems, id)
			gb.visit(id, tag, doc.Level(id))
		case xmldoc.Text:
			for _, tok := range pipe.Tokenize(doc.Text(id)) {
				pos := int32(ix.numTokens)
				ix.positions[tok.Term] = append(ix.positions[tok.Term], pos)
				ix.seqNode = append(ix.seqNode, id)
				ix.numTokens++
			}
		}
		return true
	})
	ix.guide = gb.g
	return ix
}

// computePhrase is the pre-CSR phrase resolution, verbatim but for one
// addition: it reports whether the list was already sorted before its
// closing sort — the fact that let the serving path drop the sort.
func (ix *oracleIndex) computePhrase(terms []string) (occ []int32, sortedAsBuilt bool) {
	first := ix.positions[terms[0]]
	if first == nil {
		return []int32{}, true
	}
	if len(terms) == 1 {
		out := make([]int32, 0, len(first))
		for _, p := range first {
			out = append(out, int32(ix.seqNode[p]))
		}
		return out, true
	}
	rarest, rarestIdx := first, 0
	for i := 1; i < len(terms); i++ {
		p := ix.positions[terms[i]]
		if p == nil {
			return []int32{}, true
		}
		if len(p) < len(rarest) {
			rarest, rarestIdx = p, i
		}
	}
	var out []int32
	for _, p := range rarest {
		start := p - int32(rarestIdx)
		if start < 0 || int(start)+len(terms) > ix.numTokens {
			continue
		}
		node := ix.seqNode[start]
		match := true
		for j, t := range terms {
			pos := start + int32(j)
			if ix.seqNode[pos] != node || !ix.hasPosition(t, pos) {
				match = false
				break
			}
		}
		if match {
			out = append(out, int32(node))
		}
	}
	sortedAsBuilt = slices.IsSorted(out)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, sortedAsBuilt
}

func (ix *oracleIndex) hasPosition(term string, pos int32) bool {
	ps := ix.positions[term]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= pos })
	return i < len(ps) && ps[i] == pos
}

// oracleFingerprint is the pre-streaming ContentFingerprint, verbatim
// but for the accessors: a Fprintf prefix, then a second walk with a
// []byte(s) per string.
func oracleFingerprint(doc *xmldoc.Document, pipe text.Pipeline, scorerName string) string {
	h := sha256.New()
	fmt.Fprintf(h, "pipe:stem=%t,stop=%t;scorer=%s;doc:",
		pipe.Stem, pipe.DropStopwords, scorerName)
	var num [4]byte
	writeStr := func(s string) {
		num[0] = byte(len(s))
		num[1] = byte(len(s) >> 8)
		num[2] = byte(len(s) >> 16)
		num[3] = byte(len(s) >> 24)
		h.Write(num[:])
		h.Write([]byte(s))
	}
	doc.Walk(func(id xmldoc.NodeID) bool {
		h.Write([]byte{byte(doc.Kind(id))})
		writeStr(doc.Tag(id))
		writeStr(doc.Text(id))
		num[0] = byte(doc.NumAttrs(id))
		h.Write(num[:1])
		for i := range doc.NumAttrs(id) {
			a := doc.AttrAt(id, i)
			writeStr(a.Name)
			writeStr(a.Value)
		}
		return true
	})
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// samplePhrases draws n phrases of one to three consecutive raw tokens
// from doc's text nodes, plus three that resolve to nothing or to
// stopwords only.
func samplePhrases(doc *xmldoc.Document, r *rand.Rand, n int) []string {
	var texts []string
	for id := 0; id < doc.Len(); id++ {
		if doc.Kind(xmldoc.NodeID(id)) == xmldoc.Text {
			texts = append(texts, doc.Text(xmldoc.NodeID(id)))
		}
	}
	phrases := []string{"", "no such phrase anywhere", "the of"}
	for try := 0; len(texts) > 0 && try < 4*n && len(phrases) < n+3; try++ {
		var raws []string
		text.EachToken(texts[r.Intn(len(texts))], func(raw string, _ int) { raws = append(raws, raw) })
		if len(raws) == 0 {
			continue
		}
		k := min(1+r.Intn(3), len(raws))
		at := r.Intn(len(raws) - k + 1)
		phrases = append(phrases, strings.Join(raws[at:at+k], " "))
	}
	return phrases
}

// checkAgainstOracle holds an Index over doc to the oracle build, field
// by field and then through the read-side API, under the given scorer
// (nil keeps the default), and through a Save/Load round trip.
func checkAgainstOracle(t *testing.T, doc *xmldoc.Document, pipe text.Pipeline, sc Scorer, phrases []string, probeTags []string) {
	t.Helper()
	o := oracleBuild(doc, pipe)
	ix := Build(doc, pipe)
	if got, want := ContentFingerprint(ix), oracleFingerprint(doc, pipe, TFIDFScorer{}.Name()); got != want {
		t.Fatalf("fingerprint fed from Build's walk = %s, oracle %s", got, want)
	}
	if sc != nil {
		ix.SetScorer(sc)
	} else {
		sc = TFIDFScorer{}
	}
	if got, want := ContentFingerprint(ix), oracleFingerprint(doc, pipe, sc.Name()); got != want {
		t.Fatalf("fingerprint under scorer %s = %s, oracle %s", sc.Name(), got, want)
	}

	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, doc)
	if err != nil {
		t.Fatalf("Load of a fresh Save: %v", err)
	}
	loaded.SetScorer(ix.scorer)

	for name, x := range map[string]*Index{"built": ix, "reloaded": loaded} {
		wantTags := make([]string, 0, len(o.tags))
		for tag, want := range o.tags {
			wantTags = append(wantTags, tag)
			if got := x.Elements(tag); !slices.Equal(got, want) {
				t.Fatalf("%s: Elements(%q) = %v, oracle %v", name, tag, got, want)
			}
		}
		sort.Strings(wantTags)
		if got := x.Tags(); !slices.Equal(got, wantTags) {
			t.Fatalf("%s: Tags() = %v, oracle %v", name, got, wantTags)
		}
		if got := x.Elements("*"); !slices.Equal(got, o.allElems) {
			t.Fatalf("%s: Elements(*) differs from the oracle (%d vs %d)", name, len(got), len(o.allElems))
		}
		if got := x.Elements("no-such-tag"); got != nil {
			t.Fatalf("%s: Elements of an absent tag = %v", name, got)
		}
		if x.NumTokens() != o.numTokens {
			t.Fatalf("%s: NumTokens = %d, oracle %d", name, x.NumTokens(), o.numTokens)
		}
		if !slices.Equal(x.seqNode, o.seqNode) {
			t.Fatalf("%s: seqNode differs from the oracle", name)
		}
		if len(x.terms.id) != len(o.positions) {
			t.Fatalf("%s: %d distinct terms, oracle %d", name, len(x.terms.id), len(o.positions))
		}
		for term, want := range o.positions {
			if got := x.terms.list(term); !slices.Equal(got, want) {
				t.Fatalf("%s: positions(%q) = %v, oracle %v", name, term, got, want)
			}
		}
		if got, want := ContentFingerprint(x), oracleFingerprint(doc, pipe, sc.Name()); got != want {
			t.Fatalf("%s: fingerprint = %s, oracle %s", name, got, want)
		}
	}
	if !reflect.DeepEqual(ix.guide, o.guide) {
		t.Fatal("dataguide differs from the oracle")
	}

	post := doc.Pos().Post
	tf := func(occ []int32, e xmldoc.NodeID) int {
		lo := sort.Search(len(occ), func(i int) bool { return occ[i] >= int32(e) })
		hi := sort.Search(len(occ), func(i int) bool { return occ[i] > post[e] })
		return hi - lo
	}
	for _, phrase := range phrases {
		want := []int32{}
		if terms := pipe.NormalizePhrase(phrase); len(terms) > 0 {
			var sorted bool
			if want, sorted = o.computePhrase(terms); !sorted {
				t.Fatalf("phrase %q: the oracle's list needed its closing sort", phrase)
			}
		}
		got := ix.phraseOccurrences(phrase)
		if !slices.Equal(got, want) || !slices.IsSorted(got) {
			t.Fatalf("phrase %q: occurrences = %v, oracle %v", phrase, got, want)
		}
		for _, tag := range probeTags {
			elems := o.allElems
			if tag != "*" {
				elems = o.tags[tag]
			}
			var holding []xmldoc.NodeID
			for _, e := range elems {
				if tf(want, e) > 0 {
					holding = append(holding, e)
				}
			}
			df := len(holding)
			if got := ix.Containing(tag, phrase); !slices.Equal(got, holding) {
				t.Fatalf("Containing(%q, %q) = %v, oracle %v", tag, phrase, got, holding)
			}
			if got := ix.DF(tag, phrase); got != df {
				t.Fatalf("DF(%q, %q) = %d, oracle %d", tag, phrase, got, df)
			}
			if tag == "*" {
				continue
			}
			best := 0.0
			for _, e := range elems {
				s := sc.Score(tf(want, e), df, len(elems))
				best = max(best, s)
				if got := ix.Score(e, phrase); got != s {
					t.Fatalf("Score(%d, %q) = %v, oracle %v", e, phrase, got, s)
				}
			}
			if got := ix.MaxPhraseScore(tag, phrase); got != best {
				t.Fatalf("MaxPhraseScore(%q, %q) = %v, oracle %v", tag, phrase, got, best)
			}
		}
	}
}

var oraclePipelines = []text.Pipeline{{}, {Stem: true}, {Stem: true, DropStopwords: true}}

// TestBuildMatchesOracle: the interned, count-and-fill Build answers
// every read-side question exactly as the map-and-append Build did, and
// its streamed fingerprint is the two-walk fingerprint byte for byte —
// so result-cache keys survive the rewrite.
func TestBuildMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		doc := xmark.GenerateSized(xmark.Config{Seed: seed}, xmark.PaperSizes[2])
		phrases := samplePhrases(doc, rand.New(rand.NewSource(seed)), 50)
		for _, pipe := range oraclePipelines {
			for _, sc := range []Scorer{nil, BM25Scorer{}} {
				checkAgainstOracle(t, doc, pipe, sc, phrases, []string{"person", "item", "text", "*"})
			}
		}
	}
}

// FuzzBuildMatchesOracle runs the same comparison over whatever the XML
// front end accepts: FuzzParseXML's seeds, plus inputs whose tokens are
// non-ASCII, upper-case, digits, or absent.
func FuzzBuildMatchesOracle(f *testing.F) {
	for _, s := range []string{
		`<a/>`,
		`<a><b>text</b><c x="1"/></a>`,
		`<dealer><car><price>500</price></car></dealer>`,
		`<a>x &lt; y &amp; z</a>`,
		`<a xmlns:n="u"><n:b/></a>`,
		`<a><b></a></b>`, `<a>`, ``, `text only`, `<a><![CDATA[cd]]></a>`,
		`<a><!-- comment --><?pi data?><b/></a>`,
		"<a>\xff\xfe</a>",
		`<a A:0="">000000</a>`,
		`<a><b>Ünïcödé naïve ÉCOLE école</b><b>日本語 テキスト</b></a>`,
		`<a><b>The RUNNING Runner runs</b><b>the running runner RUNS</b></a>`,
		`<a><b>2007 42 007 4x4</b><c>42</c></a>`,
		`<a><b> </b><b>--- ... !!!</b><b/></a>`,
		`<a>the of and<b>to be or not to be</b></a>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmldoc.ParseString(src)
		if err != nil {
			return
		}
		phrases := samplePhrases(doc, rand.New(rand.NewSource(int64(len(src)))), 4)
		tags := []string{doc.Tag(doc.Root()), "b", "*"}
		for _, pipe := range oraclePipelines {
			checkAgainstOracle(t, doc, pipe, nil, phrases, tags)
		}
	})
}
