package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// fig1XML recreates the car-sale database of Fig. 1.
const fig1XML = `
<dealer>
  <car>
    <description>I am selling my 2001 car at the best bid. It is in good condition
      as I was the only driver. I used it to go to work in NYC.</description>
    <date>2001</date>
    <price>500</price>
    <horsepower>150</horsepower>
    <owner>John Smith</owner>
    <color>red</color>
  </car>
  <car>
    <description>Powerful car. Low mileage. Bought on 11/2005. Eager seller.
      goodcar@yahoo.com</description>
    <horsepower>200</horsepower>
    <description>good condition overall</description>
    <mileage>50000</mileage>
    <price>500</price>
    <location>NYC</location>
    <color>blue</color>
  </car>
  <car>
    <description>american classic in good condition and low mileage</description>
    <price>1800</price>
    <mileage>30000</mileage>
    <color>green</color>
    <horsepower>180</horsepower>
  </car>
</dealer>`

const fig2Rules = `
sr p1 priority 1: if pc(car, description) & ftcontains(description, "low mileage") then remove ftcontains(car, "good condition")
sr p2 priority 2: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
sr p3 priority 3: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")
vor w1 priority 2: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor w5: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
rank K,V,S
`

const paperQ = `//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"] and price < 2000]`

func newEngine(t *testing.T) *Engine {
	t.Helper()
	doc, err := xmldoc.ParseString(fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	return New(doc, text.Pipeline{})
}

func TestSearchWithoutProfile(t *testing.T) {
	e := newEngine(t)
	resp, err := e.Search(Request{Query: tpq.MustParse(paperQ), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Cars 2 and 3 satisfy both phrases and the price bound; car 1 lacks
	// "low mileage".
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
}

// TestSearchP1DisablesP2P3 checks the Section 5.1 conflict semantics end
// to end: with p1 at the highest priority, p1 fires first and removes
// "good condition", making p2 and p3 inapplicable.
func TestSearchP1DisablesP2P3(t *testing.T) {
	e := newEngine(t)
	prof := profile.MustParseProfile(fig2Rules)
	resp, err := e.Search(Request{Query: tpq.MustParse(paperQ), Profile: prof, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AppliedSRs) != 1 || resp.AppliedSRs[0] != "p1" {
		t.Fatalf("applied = %v, want [p1] (p1 disables p2 and p3)", resp.AppliedSRs)
	}
	// "low mileage" remains required: still 2 cars.
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
}

// plan1Rules is the Section 6.2 scenario: "For ease of exposition, we
// consider two SRs, p2 and p3" plus the ordering rules.
const plan1Rules = `
sr p2 priority 1: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
sr p3 priority 2: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")
vor w1 priority 2: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor w5: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
rank K,V,S
`

func TestSearchWithProfileBroadens(t *testing.T) {
	e := newEngine(t)
	prof := profile.MustParseProfile(plan1Rules)
	resp, err := e.Search(Request{Query: tpq.MustParse(paperQ), Profile: prof, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.AppliedSRs) != 2 {
		t.Fatalf("applied = %v, want p2 and p3", resp.AppliedSRs)
	}
	// p3's outer-join makes "low mileage" optional and p2 adds an
	// optional "american" — Plan 1's behaviour: all three cars qualify,
	// american/low-mileage cars score higher.
	if len(resp.Results) != 3 {
		t.Fatalf("personalization should broaden to 3 cars: %+v", resp.Results)
	}
	// KORs dominate the ranking: car 1 contains both "best bid" and
	// "NYC" and must come first.
	if !strings.Contains(resp.Results[0].Snippet, "best bid") {
		t.Errorf("KOR-preferred car must rank first: %+v", resp.Results)
	}
	if resp.Results[0].K <= resp.Results[1].K {
		t.Errorf("K order broken: %+v", resp.Results)
	}
	if resp.EncodedQuery == nil || resp.PlanShape == "" {
		t.Errorf("response metadata missing")
	}
}

func TestSearchRejectsAmbiguousProfile(t *testing.T) {
	e := newEngine(t)
	prof := profile.MustParseProfile(`
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
`)
	_, err := e.Search(Request{Query: tpq.MustParse(paperQ), Profile: prof})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous profile must be rejected, got %v", err)
	}
	// With priorities it goes through.
	prof.VORs[0].Priority = 2
	prof.VORs[1].Priority = 1
	if _, err := e.Search(Request{Query: tpq.MustParse(paperQ), Profile: prof}); err != nil {
		t.Fatalf("prioritized profile must work: %v", err)
	}
}

func TestStrategiesProduceSameResults(t *testing.T) {
	sameResults(t, newEngine(t), tpq.MustParse(paperQ), profile.MustParseProfile(fig2Rules), 3)
	// A negatively weighted KOR under Push, the served default (its
	// kor-scorebound once read w · Σ max score < 0).
	xm := New(xmark.GenerateSized(xmark.Config{Seed: 42}, 512*1024), text.Pipeline{})
	sameResults(t, xm, workload.Fig5Query(), profile.MustParseProfile(`
kor a priority 1 weight -3: x.tag = person & y.tag = person & ftcontains(x, "United States") => x < y
kor b priority 2 weight 0.5: x.tag = person & y.tag = person & ftcontains(x, "Phoenix") => x < y
rank K,V,S
`), 10)
	// Weights of either sign over the Fig. 5 phrases.
	r := rand.New(rand.NewSource(43))
	weights := []string{"-3", "-1", "-0.5", "0.5", "1", "2"}
	for iter := 0; iter < 8; iter++ {
		var src strings.Builder
		for i, ph := range []string{"male", "United States", "College", "Phoenix"}[:1+r.Intn(4)] {
			fmt.Fprintf(&src, "kor k%d priority %d weight %s: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n",
				i, i+1, weights[r.Intn(len(weights))], ph)
		}
		src.WriteString("rank K,V,S\n")
		sameResults(t, xm, workload.Fig5Query(), profile.MustParseProfile(src.String()), 1+r.Intn(12))
	}
}

// sameResults fails unless every strategy ranks the nodes and K of Naive.
func sameResults(t *testing.T, e *Engine, q *tpq.Query, prof *profile.Profile, k int) {
	t.Helper()
	var base []Result
	for i, strat := range []plan.Strategy{plan.Naive, plan.InterleaveNoSort, plan.InterleaveSort, plan.Push} {
		resp, err := e.Search(Request{Query: q, Profile: prof, K: k, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = resp.Results
			continue
		}
		if len(resp.Results) != len(base) {
			t.Fatalf("%v: %d results vs %d", strat, len(resp.Results), len(base))
		}
		for j := range base {
			if got := resp.Results[j]; got.Node != base[j].Node || got.K != base[j].K {
				t.Errorf("%v: rank %d differs: %v (K=%g) vs %v (K=%g)", strat, j,
					got.Node, got.K, base[j].Node, base[j].K)
			}
		}
	}
}

func TestLiteralFlockBroadensToo(t *testing.T) {
	e := newEngine(t)
	prof := profile.MustParseProfile(fig2Rules)
	resp, err := literalFlockSearch(e, Request{Query: tpq.MustParse(paperQ), Profile: prof, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) < 2 {
		t.Fatalf("literal flock should also broaden: %+v", resp.Results)
	}
	if !strings.Contains(resp.PlanShape, "flock") {
		t.Errorf("PlanShape = %q", resp.PlanShape)
	}
}

func TestAnalyzeProfile(t *testing.T) {
	prof := profile.MustParseProfile(fig2Rules)
	pa, err := AnalyzeProfile(context.Background(), nil, prof, tpq.MustParse(paperQ))
	if err != nil {
		t.Fatal(err)
	}
	if pa.ConflictErr != nil {
		t.Fatalf("prioritized rules must not error: %v", pa.ConflictErr)
	}
	if len(pa.Flock) < 2 {
		t.Errorf("flock = %d queries", len(pa.Flock))
	}
	if pa.Ambiguity.Ambiguous {
		t.Errorf("prioritized VORs must be unambiguous")
	}
	if len(pa.Applied) == 0 {
		t.Errorf("no rules applied")
	}
}

func TestSearchValidation(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Search(Request{}); err == nil {
		t.Errorf("nil query must fail")
	}
}

func TestSearchStemmedPipeline(t *testing.T) {
	doc, err := xmldoc.ParseString(fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	// Stemming on: "conditions" would match too; basic smoke check.
	resp, err := New(doc, text.DefaultPipeline).Search(Request{Query: tpq.MustParse(`//car[. ftcontains "good condition"]`), K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Errorf("all cars mention good condition: %+v", resp.Results)
	}
}

func TestSnippetTruncation(t *testing.T) {
	long := strings.Repeat("word ", 50)
	s := snippet(long, 40)
	if len(s) > 45 {
		t.Errorf("snippet too long: %q", s)
	}
	if !strings.HasSuffix(s, "…") {
		t.Errorf("no ellipsis: %q", s)
	}
	if got := snippet("short", 40); got != "short" {
		t.Errorf("short text mangled: %q", got)
	}
}

func TestResultPaths(t *testing.T) {
	e := newEngine(t)
	resp, err := e.Search(Request{Query: tpq.MustParse(`//car[color = "red"]`), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Path != "/dealer/car" {
		t.Errorf("results = %+v", resp.Results)
	}
}
