package index

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/text"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// TestWritePathAllocs holds the two halves of a PUT to allocation
// ceilings on a 468 KB XMark document. The map-and-append Build made
// about 2.6 allocations per token (a []Token, a lower-cased copy and a
// stem each, plus posting-list regrowth); the interned Build normalizes
// a surface form once, so what is left is map growth, the stems that
// differ from their word, and a fixed handful of arenas. The parser
// allocated 36x its input under encoding/xml, then 14x with its node
// arena sized from the source, in 1.5 M allocations, then 6.5x with the
// scanner filling an 88-byte node per '<'; writing the document's
// columns (25 bytes a node) and one text arena, it stays under 4x in
// under a hundred allocations.
func TestWritePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted too")
	}
	var sb strings.Builder
	if err := xmark.GenerateSized(xmark.Config{Seed: 42}, xmark.PaperSizes[2]).WriteXML(&sb, ""); err != nil {
		t.Fatal(err)
	}
	src := sb.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc, err := xmldoc.ParseString(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(4*len(src)); got > ceiling {
		t.Errorf("ParseString allocated %d bytes for a %d-byte source (%.1fx), ceiling 4x",
			got, len(src), float64(got)/float64(len(src)))
	}
	if got := testing.AllocsPerRun(3, func() { _, _ = xmldoc.ParseString(src) }); got > 1000 {
		t.Errorf("ParseString allocates %v times, ceiling 1000", got)
	}

	ix := Build(doc, text.DefaultPipeline)
	terms := len(ix.terms.id)
	got := testing.AllocsPerRun(5, func() { Build(doc, text.DefaultPipeline) })
	if ceiling := float64(3*terms + 200); got > ceiling {
		t.Errorf("Build allocates %v times for %d distinct terms (%.2f per term), ceiling 3 per term + 200",
			got, terms, got/float64(terms))
	}
	t.Logf("ParseString %.1fx source bytes; Build %v allocations for %d distinct terms, %d tokens",
		float64(after.TotalAlloc-before.TotalAlloc)/float64(len(src)), got, terms, ix.NumTokens())
}
