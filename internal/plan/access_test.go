package plan

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
)

// TestResolveAccessAuto pins the auto heuristic's decision surface:
// explicit choices win (for queries the join covers; see
// TestUncoveredQueryScans); structural skeletons with cheap tag
// lists take the join; single-node queries and rare-distinguished-tag
// queries under huge descendant lists fall back to the scan.
func TestResolveAccessAuto(t *testing.T) {
	ix := index.Build(genDealer(rand.New(rand.NewSource(7)), 200), text.Pipeline{})
	cases := []struct {
		name string
		q    string
		opts Options
		want AccessPath
	}{
		{"explicit scan", `//car[./color]`, Options{AccessPath: AccessScan}, AccessScan},
		{"explicit twigjoin", `//car`, Options{AccessPath: AccessTwigJoin}, AccessTwigJoin},
		{"auto single node", `//car`, Options{}, AccessScan},
		{"auto structural", `//car[./color and ./make]`, Options{}, AccessTwigJoin},
		// dealer is a single element sitting above every car subtree: the
		// scan visits one candidate while the join would stream every
		// descendant list, so the cost estimate must keep the scan.
		{"auto rare dist", `//dealer[.//color and .//make and .//mileage and .//price and .//hp and .//description]`, Options{}, AccessScan},
		// Optional branches do not stream: the same huge lists behind an
		// optional edge must not scare auto away from the join.
		{"auto optional streams", `//car[./color and ./make and .//dealer[.//price and .//mileage and .//hp]?]`, Options{}, AccessTwigJoin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := tpq.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.opts.resolveAccess(ix, q); got != tc.want {
				t.Fatalf("resolveAccess(%s) = %s, want %s", tc.q, got, tc.want)
			}
		})
	}
}

// TestUncoveredQueryScans: a query the fused twig join does not cover
// (here 65 required leaves, one past its per-leaf bitmask) takes the scan
// access path under auto and under an explicit twigjoin alike, reports
// it, and returns the explicit scan plan's answers.
func TestUncoveredQueryScans(t *testing.T) {
	ix := index.Build(genDealer(rand.New(rand.NewSource(11)), 120), text.Pipeline{})
	q := tpq.NewQuery("car", tpq.Descendant)
	for i := 0; i < 65; i++ {
		q.AddChild(0, []string{"color", "make", "price"}[i%3], tpq.Child)
	}
	prof := profile.MustParseProfile(testProfile)
	ref, err := BuildWith(ix, q, prof, 10, Options{AccessPath: AccessScan})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Execute()
	if len(want) == 0 {
		t.Fatal("the reference scan plan found no answers")
	}
	for _, ap := range []AccessPath{AccessAuto, AccessTwigJoin} {
		p, err := BuildWith(ix, q, prof, 10, Options{AccessPath: ap})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Execute()
		if p.Access() != AccessScan || p.JoinStats() != nil {
			t.Errorf("%s: Access() = %s, JoinStats() = %v; want scan and no join stats", ap, p.Access(), p.JoinStats())
		}
		if p.String() != ref.String() {
			t.Errorf("%s: plan shape %q, want the scan plan's %q", ap, p, ref)
		}
		if !sameAnswers(want, got) {
			t.Errorf("%s: answers differ from the explicit scan plan\nscan: %s\ngot:  %s", ap, describe(want), describe(got))
		}
	}
}
