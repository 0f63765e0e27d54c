package pimento

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestPublicAPIQuickstart(t *testing.T) {
	eng, err := OpenString(workload.Fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`//car[./description[. ftcontains "good condition"] and price < 2000]`)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseProfile(workload.Plan1ProfileSrc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Search(q, prof, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if !strings.Contains(resp.Results[0].Snippet, "best bid") {
		t.Errorf("KOR-preferred car must rank first")
	}
}

func TestPublicAPIOptions(t *testing.T) {
	eng, err := OpenString(workload.Fig1XML, WithStemming(false))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//car[. ftcontains "conditions"]`)
	resp, err := eng.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Errorf("without stemming, 'conditions' must not match 'condition'")
	}

	eng2, _ := OpenString(workload.Fig1XML, WithStemming(true))
	resp2, err := eng2.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Results) == 0 {
		t.Errorf("with stemming, 'conditions' matches 'condition'")
	}
}

func TestPublicAPIStrategies(t *testing.T) {
	eng, _ := OpenString(workload.Fig1XML)
	q := MustParseQuery(`//car[. ftcontains "good condition"]`)
	prof := MustParseProfile(workload.Plan1ProfileSrc)
	var first []Result
	for _, s := range []Strategy{Naive, InterleaveNoSort, InterleaveSort, Push, PushDeep} {
		resp, err := eng.Search(q, prof, WithStrategy(s), WithK(3))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if first == nil {
			first = resp.Results
			continue
		}
		if len(resp.Results) != len(first) {
			t.Errorf("%v: result count differs", s)
		}
	}
}

func TestPublicAPIAnalyze(t *testing.T) {
	prof := MustParseProfile(workload.Fig2ProfileSrc)
	pa := Analyze(prof, workload.PaperQuery())
	if pa.ConflictErr != nil {
		t.Fatalf("prioritized Fig. 2 profile: %v", pa.ConflictErr)
	}
	if len(pa.Flock) < 2 {
		t.Errorf("flock = %d", len(pa.Flock))
	}
}

func TestThesaurusExpansion(t *testing.T) {
	// Two cars: one says "good condition", the other the synonym
	// "excellent shape". Without a thesaurus only the first matches;
	// with one, both match and the exact match ranks first.
	src := `<dealer>
	  <car><description>excellent shape, one owner</description></car>
	  <car><description>good condition, city car</description></car>
	</dealer>`
	eng, err := OpenString(src)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//car[./description[. ftcontains "good condition"]]`)

	plain, err := eng.Search(q, nil, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Results) != 1 {
		t.Fatalf("without thesaurus: %d results", len(plain.Results))
	}

	th := NewThesaurus()
	th.Add("good condition", "excellent shape")
	expanded, err := eng.Search(q, nil, WithK(5), WithThesaurus(th, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	// Expansion adds optional predicates: the exact match still filters
	// (required predicate unchanged), so the synonym-only car is NOT
	// admitted — but the exact-match car gains nothing. To admit synonym
	// matches the required predicate must be relaxed by a scoping rule;
	// combine both:
	prof := MustParseProfile(`sr relax priority 1: if ftcontains(description, "good condition") then remove ftcontains(description, "good condition")`)
	both, err := eng.Search(q, prof, WithK(5), WithThesaurus(th, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Results) != 2 {
		t.Fatalf("relax + thesaurus should admit both cars: %+v", both.Results)
	}
	if !strings.Contains(both.Results[0].Snippet, "good condition") {
		t.Errorf("exact match must rank first: %+v", both.Results)
	}
	if !(both.Results[0].S > both.Results[1].S) {
		t.Errorf("synonym match must score lower: %+v", both.Results)
	}
	_ = expanded
}

func TestPublicAPICorpus(t *testing.T) {
	c := NewCorpus()
	if err := c.AddXML("a", `<d><car><description>good condition</description></car></d>`); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocument(`<d><car><description>good condition, best bid</description></car></d>`)
	if err != nil {
		t.Fatal(err)
	}
	c.Add("b", doc)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	prof := MustParseProfile(`kor k: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y`)
	resp, err := c.Search(MustParseQuery(`//car[. ftcontains "good condition"]`), prof, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].DocName != "b" {
		t.Fatalf("results = %+v", resp.Results)
	}
}

func TestPublicAPISaveLoad(t *testing.T) {
	eng, err := OpenString(workload.Fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	eng2, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery(`//car[color = "red"]`)
	r1, _ := eng.Search(q, nil)
	r2, err := eng2.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Results) != len(r2.Results) {
		t.Fatalf("snapshot changed results: %d vs %d", len(r1.Results), len(r2.Results))
	}
	if _, err := LoadEngine(bytes.NewReader([]byte("junk"))); err == nil {
		t.Errorf("junk snapshot must fail")
	}
}

func TestPublicAPIMiscOptions(t *testing.T) {
	doc, err := ParseDocument(workload.Fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	eng := OpenDocument(doc, WithStopwords())
	if eng.Document() != doc {
		t.Errorf("Document() identity lost")
	}
	// Stopwords dropped: "the" alone cannot match.
	resp, err := eng.Search(MustParseQuery(`//car[. ftcontains "the"]`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Errorf("stopword matched: %+v", resp.Results)
	}

	// Twig access through the public API.
	resp, err = eng.Search(MustParseQuery(`//car[./price]`), nil, WithAccessPath(AccessTwigJoin), WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Errorf("twig access results = %d", len(resp.Results))
	}

	th, err := ParseThesaurus(`good condition = excellent shape`)
	if err != nil {
		t.Fatal(err)
	}
	if th.Len() != 1 {
		t.Errorf("thesaurus Len = %d", th.Len())
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := OpenString("<broken"); err == nil {
		t.Errorf("broken XML must fail")
	}
	if _, err := ParseQuery("not a query"); err == nil {
		t.Errorf("bad query must fail")
	}
	if _, err := ParseProfile("xyzzy nonsense"); err == nil {
		t.Errorf("bad profile must fail")
	}
}

func TestKeywordQueryCO(t *testing.T) {
	eng, _ := OpenString(workload.Fig1XML)
	q, err := KeywordQuery("good condition")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Search(q, nil, WithK(20))
	if err != nil {
		t.Fatal(err)
	}
	// Every result's subtree contains the phrase; multiple component
	// granularities (car, description, dealer) are returned, ranked.
	if len(resp.Results) < 4 {
		t.Fatalf("CO query results = %d", len(resp.Results))
	}
	tags := map[string]bool{}
	for _, r := range resp.Results {
		tags[eng.Document().Tag(r.Node)] = true
	}
	if !tags["car"] || !tags["description"] {
		t.Errorf("CO granularities missing: %v", tags)
	}
	if _, err := KeywordQuery(); err == nil {
		t.Errorf("empty keyword list must fail")
	}
	if _, err := KeywordQuery("  "); err == nil {
		t.Errorf("blank phrase must fail")
	}
}

func TestPublicAPICacheAndDeadline(t *testing.T) {
	eng, err := OpenString(workload.Fig1XML, WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(`//car[price < 2000]`)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := eng.Search(q, nil, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Error("first search marked Cached")
	}
	hit, err := eng.Search(q, nil, WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("repeat search not marked Cached")
	}
	if len(hit.Results) != len(cold.Results) {
		t.Fatalf("cached answer has %d results, cold had %d", len(hit.Results), len(cold.Results))
	}
	for i := range hit.Results {
		if hit.Results[i] != cold.Results[i] {
			t.Errorf("result %d diverged: %+v vs %+v", i, hit.Results[i], cold.Results[i])
		}
	}

	// A different K is a different cache key.
	other, err := eng.Search(q, nil, WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different-K search served from cache")
	}

	// An explicitly negative K is rejected, cache or no cache.
	if _, err := eng.Search(q, nil, WithK(-2)); err == nil {
		t.Error("negative K accepted")
	}

	// An immediately-expiring deadline aborts instead of answering. A
	// cached request would be answered anyway (a hit costs nothing), so
	// use a K no earlier search has populated.
	if _, err := eng.Search(q, nil, WithK(7), WithDeadline(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline search err = %v, want context.DeadlineExceeded", err)
	}

	// The cached answer for the original request is still there.
	again, err := eng.Search(q, nil, WithK(3))
	if err != nil || !again.Cached {
		t.Errorf("after deadline abort: err = %v, Cached = %v; want cached answer", err, again.Cached)
	}
}
