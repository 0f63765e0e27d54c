package xmark

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/text"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 1}, 50)
	b := Generate(Config{Seed: 1}, 50)
	if a.XMLString() != b.XMLString() {
		t.Fatal("same seed must generate identical documents")
	}
	c := Generate(Config{Seed: 2}, 50)
	if a.XMLString() == c.XMLString() {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateShape(t *testing.T) {
	doc := Generate(Config{Seed: 7}, 100)
	if doc.Tag(doc.Root()) != "site" {
		t.Fatalf("root = %q", doc.Tag(doc.Root()))
	}
	persons := doc.ElementsByTag("person")
	if len(persons) != 100 {
		t.Fatalf("persons = %d", len(persons))
	}
	// Every person has a business element nested in a profile.
	for _, p := range persons[:10] {
		if v, ok := doc.DeepValue(p, "business"); !ok || (v != "Yes" && v != "No") {
			t.Errorf("person %d business = %q, %v", p, v, ok)
		}
	}
	if len(doc.ElementsByTag("item")) == 0 {
		t.Errorf("no items generated")
	}
	if len(doc.ElementsByTag("open_auction")) == 0 {
		t.Errorf("no auctions generated")
	}
}

func TestGenerateTokensForFig5(t *testing.T) {
	doc := Generate(Config{Seed: 3}, 300)
	ix := index.Build(doc, text.Pipeline{})
	root := doc.Root()
	for _, phrase := range []string{"male", "United States", "College", "Phoenix", "Yes"} {
		if !ix.Contains(root, phrase) {
			t.Errorf("generated corpus lacks %q", phrase)
		}
	}
	// Some person must have age 33 (π5's constant).
	found := false
	for _, p := range doc.ElementsByTag("person") {
		if v, ok := doc.DeepValue(p, "age"); ok && v == "33" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no person aged 33 in 300 persons")
	}
}

func TestGenerateSizedHitsTarget(t *testing.T) {
	for _, target := range []int{101 * 1024, 1024 * 1024} {
		doc := GenerateSized(Config{Seed: 5}, target)
		got := len(doc.XMLString())
		ratio := float64(got) / float64(target)
		if ratio < 0.8 || ratio > 1.4 {
			t.Errorf("target %d: serialized %d bytes (ratio %.2f)", target, got, ratio)
		}
	}
}

func TestBusinessSelectivity(t *testing.T) {
	doc := Generate(Config{Seed: 11, PersonBusinessYes: 0.9}, 500)
	yes := 0
	persons := doc.ElementsByTag("person")
	for _, p := range persons {
		if v, _ := doc.DeepValue(p, "business"); v == "Yes" {
			yes++
		}
	}
	frac := float64(yes) / float64(len(persons))
	if frac < 0.8 || frac > 1.0 {
		t.Errorf("yes fraction = %.2f, want ~0.9", frac)
	}
}

func TestFig5EndToEnd(t *testing.T) {
	doc := Generate(Config{Seed: 13}, 400)
	e := engine.New(doc, text.Pipeline{})
	for n := 1; n <= 4; n++ {
		prof := workload.Fig5Profile(n)
		resp, err := e.Search(engine.Request{
			Query:    workload.Fig5Query(),
			Profile:  prof,
			K:        10,
			Strategy: plan.Push,
		})
		if err != nil {
			t.Fatalf("nKORs=%d: %v", n, err)
		}
		if len(resp.Results) != 10 {
			t.Fatalf("nKORs=%d: %d results", n, len(resp.Results))
		}
		// Every result is a person with business=Yes.
		for _, res := range resp.Results {
			if doc.Tag(res.Node) != "person" {
				t.Errorf("non-person answer: %+v", res)
			}
			if v, _ := doc.DeepValue(res.Node, "business"); v != "Yes" {
				t.Errorf("answer without business=Yes: %+v", res)
			}
		}
	}
}

func TestFig5StrategiesAgreeOnXMark(t *testing.T) {
	doc := Generate(Config{Seed: 17}, 600)
	e := engine.New(doc, text.Pipeline{})
	prof := workload.Fig5Profile(4)
	var base []engine.Result
	for i, strat := range plan.Strategies {
		resp, err := e.Search(engine.Request{
			Query: workload.Fig5Query(), Profile: prof, K: 10, Strategy: strat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = resp.Results
			continue
		}
		if len(resp.Results) != len(base) {
			t.Fatalf("%v: %d vs %d results", strat, len(resp.Results), len(base))
		}
		for j := range base {
			if resp.Results[j].Node != base[j].Node {
				t.Errorf("%v rank %d: node %d vs %d", strat, j,
					resp.Results[j].Node, base[j].Node)
			}
		}
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{
		101 * 1024:             "101K",
		1024 * 1024:            "1M",
		10 * 1024 * 1024:       "10M",
		5*1024*1024 + 700*1024: "5.7M",
	}
	for in, want := range cases {
		if got := SizeLabel(in); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"4096", 4096, true},
		{"512K", 512 * 1024, true},
		{"4M", 4 * 1024 * 1024, true},
		{"1.5M", 1536 * 1024, true},
		{" 64m ", 64 * 1024 * 1024, true},
		{"512k", 512 * 1024, true},
		{"", 0, false},
		{"lots", 0, false},
		{"12KB", 0, false},
		{"K", 0, false},
		{"m", 0, false},
	} {
		got, err := ParseSize(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestPaperSizesOrdered(t *testing.T) {
	for i := 1; i < len(PaperSizes); i++ {
		if PaperSizes[i] <= PaperSizes[i-1] {
			t.Fatalf("PaperSizes not increasing: %v", PaperSizes)
		}
	}
	labels := make([]string, len(PaperSizes))
	for i, s := range PaperSizes {
		labels[i] = SizeLabel(s)
	}
	want := "101K 212K 468K 571K 823K 1M 5.7M 10M"
	if got := strings.Join(labels, " "); got != want {
		t.Errorf("labels = %q, want %q", got, want)
	}
}

func TestDeepValueOnGenerated(t *testing.T) {
	doc := Generate(Config{Seed: 19}, 20)
	p := doc.ElementsByTag("person")[0]
	if _, ok := doc.DeepValue(p, "business"); !ok {
		t.Errorf("DeepValue(business) failed")
	}
	if v, ok := doc.AttrValue(p, "id"); !ok || !strings.HasPrefix(v, "person") {
		t.Errorf("person id attr = %q, %v", v, ok)
	}
	_ = xmldoc.InvalidNode
}

func BenchmarkGenerate1MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateSized(Config{Seed: int64(i)}, 1024*1024)
	}
}

func TestGenerateClosedAuctionsAndCategories(t *testing.T) {
	doc := Generate(Config{Seed: 23}, 100)
	if len(doc.ElementsByTag("closed_auction")) == 0 {
		t.Errorf("no closed auctions")
	}
	if len(doc.ElementsByTag("category")) != 4 {
		t.Errorf("categories = %d", len(doc.ElementsByTag("category")))
	}
	// Buyer/seller references point at generated persons.
	ca := doc.ElementsByTag("closed_auction")[0]
	if v, ok := doc.DeepValue(ca, "buyer"); !ok || !strings.HasPrefix(v, "person") {
		t.Errorf("buyer ref = %q, %v", v, ok)
	}
}
