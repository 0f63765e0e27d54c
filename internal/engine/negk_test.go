package engine

import (
	"strings"
	"testing"

	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// TestNegativeKRejected pins the API-boundary contract: K == 0 means
// "default of 10", but an explicitly negative K is a caller bug and
// must be an error, not a silent default.
func TestNegativeKRejected(t *testing.T) {
	doc, err := xmldoc.ParseString(fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	e := New(doc, text.Pipeline{Stem: true})
	q, err := tpq.Parse(`//car[price < 2000]`)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		k       int
		wantErr bool
	}{
		{"k=-1", -1, true},
		{"k=-10", -10, true},
		{"k=minint", -1 << 31, true},
		{"k=0 defaults", 0, false},
		{"k=1", 1, false},
		{"k=100", 100, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := e.Search(Request{Query: q, K: tc.k})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("K=%d: got %d results, want error", tc.k, len(resp.Results))
				}
				if !strings.Contains(err.Error(), "negative K") {
					t.Errorf("K=%d: error %q does not name the problem", tc.k, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("K=%d: %v", tc.k, err)
			}
			if tc.k == 0 && len(resp.Results) > 10 {
				t.Errorf("K=0 returned %d results, want the default cap of 10", len(resp.Results))
			}
		})
	}
}
