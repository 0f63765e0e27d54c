package index

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

const dealerXML = `
<dealer>
  <car>
    <description>It is in good condition. I used it to go to work in NYC.</description>
    <price>500</price>
    <color>red</color>
  </car>
  <car>
    <description>Powerful car. Low mileage. Eager seller. good shape</description>
    <price>1500</price>
    <color>blue</color>
  </car>
  <car>
    <description>best bid wins. good condition, good condition indeed</description>
    <price>900</price>
  </car>
</dealer>`

func buildIdx(t *testing.T, src string) *Index {
	t.Helper()
	d, err := xmldoc.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Build(d, text.Pipeline{}) // no stemming: exact-token tests
}

func TestTagIndex(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	if got := ix.TagCount("car"); got != 3 {
		t.Fatalf("TagCount(car) = %d", got)
	}
	cars := ix.Elements("car")
	for i := 1; i < len(cars); i++ {
		if cars[i-1] >= cars[i] {
			t.Errorf("Elements not in document order: %v", cars)
		}
	}
	if got := ix.TagCount("nothing"); got != 0 {
		t.Errorf("TagCount(nothing) = %d", got)
	}
	tags := ix.Tags()
	want := []string{"car", "color", "dealer", "description", "price"}
	if strings.Join(tags, ",") != strings.Join(want, ",") {
		t.Errorf("Tags = %v", tags)
	}
}

func TestContainsSingleTerm(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	cars := ix.Elements("car")
	if !ix.Contains(cars[0], "NYC") {
		t.Errorf("car 0 should contain NYC")
	}
	if ix.Contains(cars[1], "NYC") {
		t.Errorf("car 1 should not contain NYC")
	}
	// Scope: the dealer root contains everything.
	if !ix.Contains(ix.Document().Root(), "mileage") {
		t.Errorf("root should contain mileage")
	}
	// Case folding.
	if !ix.Contains(cars[0], "nyc") {
		t.Errorf("case folding failed")
	}
}

func TestContainsPhrase(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	cars := ix.Elements("car")
	if !ix.Contains(cars[0], "good condition") {
		t.Errorf("car 0 has the phrase")
	}
	if ix.Contains(cars[1], "good condition") {
		t.Errorf("car 1 has 'good' and (no) 'condition' but not the phrase")
	}
	if !ix.Contains(cars[1], "low mileage") {
		t.Errorf("car 1 has low mileage")
	}
	if !ix.Contains(cars[2], "best bid") {
		t.Errorf("car 2 has best bid")
	}
	if ix.Contains(cars[0], "condition good") {
		t.Errorf("phrase order must matter")
	}
	if ix.Contains(cars[0], "zzz yyy") {
		t.Errorf("absent phrase")
	}
	if ix.Contains(cars[0], "") {
		t.Errorf("empty phrase must not match")
	}
}

func TestTF(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	cars := ix.Elements("car")
	if got := ix.TF(cars[2], "good condition"); got != 2 {
		t.Errorf("TF(car2, good condition) = %d, want 2", got)
	}
	if got := ix.TF(cars[0], "good condition"); got != 1 {
		t.Errorf("TF(car0) = %d, want 1", got)
	}
	if got := ix.TF(ix.Document().Root(), "good condition"); got != 3 {
		t.Errorf("TF(root) = %d, want 3", got)
	}
	if got := ix.TF(cars[1], "good condition"); got != 0 {
		t.Errorf("TF(car1) = %d, want 0", got)
	}
}

func TestDF(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	if got := ix.DF("car", "good condition"); got != 2 {
		t.Errorf("DF = %d, want 2", got)
	}
	if got := ix.DF("car", "powerful"); got != 1 {
		t.Errorf("DF(powerful) = %d, want 1", got)
	}
	if got := ix.DF("car", "zebra"); got != 0 {
		t.Errorf("DF(zebra) = %d", got)
	}
}

func TestScoreProperties(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	cars := ix.Elements("car")
	s0 := ix.Score(cars[0], "good condition")
	s1 := ix.Score(cars[1], "good condition")
	s2 := ix.Score(cars[2], "good condition")
	if s1 != 0 {
		t.Errorf("non-matching element must score 0, got %v", s1)
	}
	if !(s0 > 0 && s0 <= MaxScore) {
		t.Errorf("score out of range: %v", s0)
	}
	if !(s2 > s0) {
		t.Errorf("higher tf must score higher: tf=2 score %v vs tf=1 score %v", s2, s0)
	}
	// Rarer phrases get a higher idf: "best bid" occurs in 1 of 3 cars.
	rare := ix.Score(cars[2], "best bid")
	if !(rare > s0) {
		t.Errorf("rarer phrase should outscore commoner one: %v vs %v", rare, s0)
	}
}

func TestPhraseAcrossTextNodes(t *testing.T) {
	// "good" ends one element's text, "condition" starts a sibling's: the
	// phrase must NOT match across text-node boundaries.
	src := `<a><b>it is good</b><c>condition matters</c></a>`
	ix := buildIdx(t, src)
	if ix.Contains(ix.Document().Root(), "good condition") {
		t.Errorf("phrase must not span text nodes")
	}
	if !ix.Contains(ix.Document().Root(), "good") {
		t.Errorf("single term must match")
	}
}

func TestStemmedIndex(t *testing.T) {
	d, err := xmldoc.ParseString(`<a><p>mining associations effectively</p></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(d, text.Pipeline{Stem: true})
	root := d.Root()
	if !ix.Contains(root, "mine association") {
		t.Errorf("stemmed index should match inflections")
	}
	plain := Build(d, text.Pipeline{})
	if plain.Contains(root, "mine association") {
		t.Errorf("unstemmed index must not match inflections")
	}
}

// TestPropertyContainsAgreesWithNaiveScan cross-checks the index probe
// against a naive text scan on random documents.
func TestPropertyContainsAgreesWithNaiveScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	words := []string{"red", "car", "bid", "best", "mileage", "low", "good"}
	pipe := text.Pipeline{}
	for iter := 0; iter < 150; iter++ {
		b := xmldoc.NewBuilder()
		b.Start("root")
		nElems := 1 + r.Intn(8)
		for i := 0; i < nElems; i++ {
			b.Start("item")
			nSents := r.Intn(3)
			for s := 0; s < nSents; s++ {
				n := 1 + r.Intn(5)
				var sb strings.Builder
				for w := 0; w < n; w++ {
					if w > 0 {
						sb.WriteByte(' ')
					}
					sb.WriteString(words[r.Intn(len(words))])
				}
				b.Elem("txt", sb.String())
			}
			b.End()
		}
		b.End()
		doc := b.MustDocument()
		ix := Build(doc, pipe)

		// Random probe phrases of length 1..3.
		for probe := 0; probe < 10; probe++ {
			n := 1 + r.Intn(3)
			parts := make([]string, n)
			for i := range parts {
				parts[i] = words[r.Intn(len(words))]
			}
			phrase := strings.Join(parts, " ")
			for _, e := range ix.Elements("item") {
				// Naive: phrase must appear inside a single text node.
				naive := false
				doc.Walk(func(id xmldoc.NodeID) bool {
					if doc.Kind(id) == xmldoc.Text && doc.Pos().Ancestor(e, id) &&
						pipe.ContainsPhrase(doc.Text(id), phrase) {
						naive = true
					}
					return true
				})
				if got := ix.Contains(e, phrase); got != naive {
					t.Fatalf("Contains(%v, %q) = %v, naive = %v\ndoc: %s",
						e, phrase, got, naive, doc.XMLString())
				}
			}
		}
	}
}

func TestPhraseCacheConcurrency(t *testing.T) {
	ix := buildIdx(t, dealerXML)
	cars := ix.Elements("car")
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				ix.Contains(cars[i%3], "good condition")
				ix.TF(cars[i%3], "low mileage")
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestContainingFirstTouchRace: concurrent first touches of the
// element-list cache, several Containing pairs and WithValue classes and
// their rank sets at once, some sets before their lists, publish the
// lists a sequential run computes and sets that decode to them (and race
// cleanly under -race); a class never answers for a phrase list or the
// reverse.
func TestContainingFirstTouchRace(t *testing.T) {
	pairs := [][2]string{{"car", "good condition"}, {"description", "good"}, {"car", "zebra"}, {"*", "good condition"}, {"dealer", "powerful"}}
	classes := []struct {
		attr string
		c    tpq.Value
		n    int
	}{{"color", tpq.StrValue("red"), 1}, {"price", tpq.NumValue(1500), 1}, {"price", tpq.NumValue(1), 0}, {"good condition", tpq.Value{}, 0}}
	want := map[[2]string][]xmldoc.NodeID{}
	ref := buildIdx(t, dealerXML)
	for _, p := range pairs {
		want[p] = ref.Containing(p[0], p[1])
	}
	for _, c := range classes {
		if got := ref.WithValue("car", c.attr, c.c); len(got) != c.n {
			t.Errorf("WithValue(car, %q, %v) = %v, want %d elements", c.attr, c.c, got, c.n)
		}
	}
	ix := buildIdx(t, dealerXML)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pairs {
				p := pairs[(g+i)%len(pairs)]
				if g%2 == 0 && p[0] != "*" {
					// A set asked for before its list is built.
					if got := decodeSet(ix.Elements(p[0]), ix.ContainingSet(p[0], p[1])); !slices.Equal(got, want[p]) {
						t.Errorf("ContainingSet(%q, %q) decodes to %v, want %v", p[0], p[1], got, want[p])
					}
				}
				if got := ix.Containing(p[0], p[1]); !slices.Equal(got, want[p]) || ix.DF(p[0], p[1]) != len(want[p]) {
					t.Errorf("Containing(%q, %q) = %v, want %v", p[0], p[1], got, want[p])
				}
				if p[0] != "*" {
					if got := decodeSet(ix.Elements(p[0]), ix.ContainingSet(p[0], p[1])); !slices.Equal(got, want[p]) {
						t.Errorf("ContainingSet(%q, %q) decodes to %v, want %v", p[0], p[1], got, want[p])
					}
				}
				c := classes[(g+i)%len(classes)]
				w := ref.WithValue("car", c.attr, c.c)
				if got := ix.WithValue("car", c.attr, c.c); !slices.Equal(got, w) {
					t.Errorf("WithValue(car, %q, %v) = %v, want %v", c.attr, c.c, got, w)
				}
				if got := decodeSet(ix.Elements("car"), ix.WithValueSet("car", c.attr, c.c)); !slices.Equal(got, w) {
					t.Errorf("WithValueSet(car, %q, %v) decodes to %v, want %v", c.attr, c.c, got, w)
				}
			}
		}()
	}
	wg.Wait()
	if got := len(want[[2]string{"car", "good condition"}]); got != 2 {
		t.Fatalf("2 cars hold \"good condition\", Containing finds %d", got)
	}
}

// decodeSet is the elements of elems whose bits are set in set, which
// must have exactly ⌈len(elems)/64⌉ words and no bit past the last
// element; nil otherwise.
func decodeSet(elems []xmldoc.NodeID, set []uint64) []xmldoc.NodeID {
	if set == nil || len(set) != (len(elems)+63)/64 {
		return nil
	}
	out := []xmldoc.NodeID{}
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			i := 64*w + bits.TrailingZeros64(x)
			if i >= len(elems) {
				return nil
			}
			out = append(out, elems[i])
		}
	}
	return out
}

// TestRankSetsDecode: every rank set decodes to exactly its list —
// phrase lists and classes, empty ones and a class of size 0 included —
// on documents whose tag counts straddle word boundaries; a wildcard
// list and a list never asked for carry no set.
func TestRankSetsDecode(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	words := []string{"good", "condition", "red", "zebra"}
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		var sb strings.Builder
		sb.WriteString("<dealer>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "<car><description>%s %s</description><price>%d</price></car><note>%s</note>",
				words[r.Intn(len(words))], words[r.Intn(len(words))], r.Intn(3), words[r.Intn(len(words))])
		}
		sb.WriteString("</dealer>")
		ix := buildIdx(t, sb.String())
		cars := ix.Elements("car")
		for _, ph := range append(words, "good condition", "absent") {
			want := ix.Containing("car", ph)
			if got := decodeSet(cars, ix.ContainingSet("car", ph)); !slices.Equal(got, want) || got == nil {
				t.Errorf("%d cars: ContainingSet(car, %q) decodes to %v, want %v", n, ph, got, want)
			}
		}
		for _, c := range []tpq.Value{tpq.NumValue(0), tpq.NumValue(2), tpq.NumValue(7), tpq.StrValue("red")} {
			want := ix.WithValue("car", "price", c)
			if got := decodeSet(cars, ix.WithValueSet("car", "price", c)); !slices.Equal(got, want) || got == nil {
				t.Errorf("%d cars: WithValueSet(car, price, %v) decodes to %v, want %v", n, c, got, want)
			}
		}
		ix.Containing("*", "good")
		ix.Containing("note", "red")
		cache := *ix.containCache.Load()
		for _, key := range []elemsKey{{tagPhrase: tagPhrase{"*", "good"}}, {tagPhrase: tagPhrase{"note", "red"}}} {
			if set := cache[key].set; set != nil {
				t.Errorf("%d cars: Containing(%q, %q) built a set nobody asked for", n, key.tag, key.phrase)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<dealer>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "<car><description>car number %d in good condition low mileage</description><price>%d</price></car>", i, i)
	}
	sb.WriteString("</dealer>")
	doc, err := xmldoc.ParseString(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(doc, text.DefaultPipeline)
	}
}

func BenchmarkContains(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<dealer>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "<car><description>car number %d in good condition low mileage</description></car>", i)
	}
	sb.WriteString("</dealer>")
	doc, _ := xmldoc.ParseString(sb.String())
	ix := Build(doc, text.DefaultPipeline)
	cars := ix.Elements("car")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Contains(cars[i%len(cars)], "good condition")
	}
}
