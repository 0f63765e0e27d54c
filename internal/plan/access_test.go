package plan

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/text"
	"repro/internal/tpq"
)

// TestResolveAccessAuto pins the auto heuristic's decision surface:
// explicit choices always win; structural skeletons with cheap tag
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
