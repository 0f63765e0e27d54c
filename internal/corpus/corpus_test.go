package corpus

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
)

func carDoc(color, desc string, price int) string {
	return fmt.Sprintf(`<dealer><car><description>%s</description><price>%d</price><color>%s</color></car></dealer>`,
		desc, price, color)
}

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := New(text.Pipeline{})
	docs := map[string]string{
		"d1": carDoc("red", "good condition, city car", 900),
		"d2": carDoc("blue", "good condition and best bid welcome", 1200),
		"d3": carDoc("green", "rusty but cheap", 300),
		"d4": carDoc("red", "good condition, best bid, NYC pickup", 1500),
	}
	for name, src := range docs {
		if err := c.AddXML(name, src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCorpusBasics(t *testing.T) {
	c := testCorpus(t)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Snapshot().Entry("d1"); !ok {
		t.Errorf("d1 missing")
	}
	if _, ok := c.Snapshot().Entry("nope"); ok {
		t.Errorf("phantom document")
	}
	if err := c.AddXML("bad", "<broken"); err == nil {
		t.Errorf("broken XML must fail")
	}
}

func TestCorpusSearchMergesAcrossDocs(t *testing.T) {
	c := testCorpus(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	prof := profile.MustParseProfile(`
kor k1: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor k2: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
`)
	resp, err := c.Search(q, prof, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if resp.DocsSearched != 4 {
		t.Errorf("DocsSearched = %d", resp.DocsSearched)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %+v", resp.Results)
	}
	// d4 has both KOR phrases -> highest K -> first; d3 never matches.
	if resp.Results[0].DocName != "d4" {
		t.Errorf("d4 should rank first: %+v", resp.Results)
	}
	for _, r := range resp.Results {
		if r.DocName == "d3" {
			t.Errorf("d3 must not match")
		}
		if r.Path == "" || r.Snippet == "" {
			t.Errorf("missing metadata: %+v", r)
		}
	}
}

func TestCorpusTopKCut(t *testing.T) {
	c := testCorpus(t)
	q := tpq.MustParse(`//car`)
	resp, err := c.Search(q, nil, 2, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Errorf("k=2 cut failed: %d results", len(resp.Results))
	}
}

func TestCorpusProfileRewriteSharedAcrossDocs(t *testing.T) {
	c := testCorpus(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "best bid"]]`)
	prof := profile.MustParseProfile(`
sr s priority 1: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "best bid")
`)
	resp, err := c.Search(q, prof, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AppliedSRs) != 1 {
		t.Fatalf("applied = %v", resp.AppliedSRs)
	}
	// Without the profile only d2/d4 match; the rule broadens to d1 too.
	if len(resp.Results) != 3 {
		t.Fatalf("broadening across corpus failed: %+v", resp.Results)
	}
	// Cars that do satisfy the demoted predicate still rank higher.
	if resp.Results[len(resp.Results)-1].DocName != "d1" {
		t.Errorf("d1 (no best bid) should rank last: %+v", resp.Results)
	}
}

func TestCorpusRejectsAmbiguousProfile(t *testing.T) {
	c := testCorpus(t)
	prof := profile.MustParseProfile(`
vor a: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor b: x.tag = car & y.tag = car & x.price < y.price => x < y
`)
	_, err := c.Search(tpq.MustParse(`//car`), prof, 5, plan.Push)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("err = %v", err)
	}
}

func TestCorpusConcurrentSearches(t *testing.T) {
	c := testCorpus(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Search(q, nil, 5, plan.Push)
			if err != nil || len(resp.Results) != 3 {
				t.Errorf("concurrent search: %v, %d results", err, len(resp.Results))
			}
		}()
	}
	wg.Wait()
}

func TestCorpusReplaceDocument(t *testing.T) {
	c := testCorpus(t)
	if err := c.AddXML("d1", carDoc("black", "completely different", 100)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 4 {
		t.Errorf("replace must not grow the corpus: %d", c.Len())
	}
	resp, err := c.Search(tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`), nil, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		if r.DocName == "d1" {
			t.Errorf("stale d1 content matched: %+v", r)
		}
	}
}

func TestCorpusManyDocsParallel(t *testing.T) {
	c := New(text.Pipeline{})
	for i := 0; i < 100; i++ {
		desc := "ordinary listing"
		if i%7 == 0 {
			desc = "good condition gem"
		}
		if err := c.AddXML(fmt.Sprintf("doc%03d", i), carDoc("red", desc, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Search(tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`), nil, 50, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 15 { // ceil(100/7)
		t.Errorf("results = %d, want 15", len(resp.Results))
	}
}
