package algebra

import (
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

func TestWildcardMatching(t *testing.T) {
	doc, err := xmldoc.ParseString(`
<article>
  <fm><abs>data mining survey</abs></fm>
  <bdy>
    <sec><p>data mining in practice</p><fig>unrelated chart</fig></sec>
  </bdy>
</article>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc, text.Pipeline{})

	// //article//*[. ftcontains "data mining"]: any descendant element
	// whose subtree contains the phrase.
	q := tpq.MustParse(`//article//*[. ftcontains "data mining"]`)
	m := NewMatcher(ix, q)
	var op Operator = &ListScanOp{Name: "scan(*)", IDs: ix.Elements("*")}
	op = &RequiredOp{In: op, Matcher: m}
	for _, u := range m.FTUnits() {
		op = &FTOp{In: op, Matcher: m, Unit: u}
	}
	got := drain(op)
	// fm, abs, bdy, sec, p all contain the phrase (article itself is the
	// pattern root, not the distinguished node, and is excluded as its
	// own proper descendant).
	want := map[string]bool{"fm": true, "abs": true, "bdy": true, "sec": true, "p": true}
	if len(got) != len(want) {
		t.Fatalf("got %d answers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[doc.Tag(a.Node)] {
			t.Errorf("unexpected answer tag %q", doc.Tag(a.Node))
		}
		if a.S <= 0 {
			t.Errorf("no score on %q", doc.Tag(a.Node))
		}
	}
}

func TestWildcardChildStep(t *testing.T) {
	doc, _ := xmldoc.ParseString(`<a><b><c/></b><d><c/></d><c/></a>`)
	ix := index.Build(doc, text.Pipeline{})
	// //a/*/c: c under any single intermediate element.
	q := tpq.MustParse(`//a/*/c`)
	m := NewMatcher(ix, q)
	matched := 0
	for _, e := range ix.Elements("c") {
		if m.MatchRequired(e) {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("matched = %d, want 2 (the direct c child of a fails the depth)", matched)
	}
}
