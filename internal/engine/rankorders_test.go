package engine

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// rankXML has three cars engineered so each rank order produces a
// different winner: car A has the KOR phrase, car B the best VOR value
// (lowest mileage), car C the highest query score (double phrase).
const rankXML = `<dealer>
  <car id="A"><description>good condition, best bid</description><mileage>50000</mileage></car>
  <car id="B"><description>good condition</description><mileage>1000</mileage></car>
  <car id="C"><description>good condition and again good condition</description><mileage>90000</mileage></car>
</dealer>`

const rankRules = `
vor w: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
kor k: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
`

func winner(t *testing.T, rank string) string {
	t.Helper()
	doc, err := xmldoc.ParseString(rankXML)
	if err != nil {
		t.Fatal(err)
	}
	e := New(doc, text.Pipeline{})
	prof := profile.MustParseProfile(rankRules + "rank " + rank + "\n")
	resp, err := e.Search(Request{
		Query:    tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`),
		Profile:  prof,
		K:        3,
		Strategy: plan.Push,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	id, _ := doc.AttrValue(resp.Results[0].Node, "id")
	return id
}

func TestRankOrdersProduceDifferentWinners(t *testing.T) {
	// K,V,S: the KOR match (A) wins.
	if got := winner(t, "K,V,S"); got != "A" {
		t.Errorf("KVS winner = %s, want A", got)
	}
	// V,K,S: the lowest-mileage car (B) wins.
	if got := winner(t, "V,K,S"); got != "B" {
		t.Errorf("VKS winner = %s, want B", got)
	}
	// blend: K + S combined. A has K≈kor score + S(1 hit); C has S with
	// tf=2. The outcome depends on magnitudes; assert only that blend
	// is well-defined and the full set returns.
	got := winner(t, "blend")
	if got == "" {
		t.Errorf("blend produced no winner")
	}
	// And blend must differ from at least one of the lexicographic
	// orders on this workload (it trades K against S).
	if got != winner(t, "K,V,S") && got != winner(t, "V,K,S") && got != "C" {
		t.Errorf("blend winner %s unexpected", got)
	}
}

func TestTwigAccessEndToEnd(t *testing.T) {
	doc, err := xmldoc.ParseString(rankXML)
	if err != nil {
		t.Fatal(err)
	}
	e := New(doc, text.Pipeline{})
	prof := profile.MustParseProfile(rankRules + "rank K,V,S\n")
	req := Request{
		Query:    tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`),
		Profile:  prof,
		K:        3,
		Strategy: plan.Push,
		Access:   plan.AccessScan,
	}
	plain, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Access = plan.AccessTwigJoin
	twig, err := e.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Results) != len(twig.Results) {
		t.Fatalf("twig access changed result count")
	}
	for i := range plain.Results {
		if plain.Results[i].Node != twig.Results[i].Node {
			t.Errorf("rank %d differs: %v vs %v", i, plain.Results[i].Node, twig.Results[i].Node)
		}
	}
}
