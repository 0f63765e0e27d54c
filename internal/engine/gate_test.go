package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// TestVetVerdictMatchesSearch is the property test behind `pimento vet`:
// a profile with no error-severity diagnostics is accepted by Search,
// and a profile with an error diagnostic is rejected — by an engine with
// an analysis cache, an engine without one, and a one-document corpus
// fan-out, which all pass the one gate (engine.Personalize) and so
// report the same *engine.Rejection: same check ID, same text, and the
// check ID is that of an error diagnostic vet reports.
func TestVetVerdictMatchesSearch(t *testing.T) {
	srSets := []string{
		"",
		"sr p1 priority 1: if pc(car, description) & ftcontains(description, \"low mileage\") then remove ftcontains(description, \"good condition\")\n",
		engine.CyclicSRs,
		// The same cycle with priorities on both of its rules, beside an
		// unprioritized one: the priorities decide it, so it is accepted.
		strings.Replace(strings.Replace(engine.CyclicSRs, "sr p1:", "sr p1 priority 1:", 1), "sr p3:", "sr p3 priority 2:", 1) +
			"sr p2: if pc(car, description) & ftcontains(description, \"good condition\") then add ftcontains(description, \"american\")\n",
		"sr u: if pc(car, d) & d.p < 1 & d.p > 2 then add ftcontains(d, \"z\")\n", // warn only
	}
	vorSets := []string{
		"",
		engine.AmbiguousVORs,
		"vor w1 priority 2: x.tag = car & y.tag = car & x.color = \"red\" & y.color != \"red\" => x < y\nvor w2 priority 1: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y\n",
		"vor d: x.tag = car & y.tag = car & x.hp < 100 & x.hp > 200 & x.m < y.m => x < y\n", // warn only
	}
	queries := []string{
		engine.PaperQ,
		`//car[./description[. ftcontains "good condition"]]`,
	}

	doc, err := xmldoc.ParseString(engine.Fig1XML)
	if err != nil {
		t.Fatal(err)
	}
	cached := engine.New(doc, text.Pipeline{})
	cached.UseAnalysisCache(engine.NewAnalysisCache(64))
	inline := engine.New(doc, text.Pipeline{})
	fanout := corpus.New(text.Pipeline{})
	fanout.Put("cars", doc)
	subjects := []struct {
		name   string
		search func(q *tpq.Query, p *profile.Profile) error
	}{
		{"cached engine", func(q *tpq.Query, p *profile.Profile) error {
			_, err := cached.Search(engine.Request{Query: q, Profile: p, K: 3})
			return err
		}},
		{"inline engine", func(q *tpq.Query, p *profile.Profile) error {
			_, err := inline.Search(engine.Request{Query: q, Profile: p, K: 3})
			return err
		}},
		{"corpus fan-out", func(q *tpq.Query, p *profile.Profile) error {
			_, err := fanout.SearchContext(context.Background(), q, p, 3, plan.Default)
			return err
		}},
	}

	for _, srs := range srSets {
		for _, vors := range vorSets {
			src := srs + vors + "rank K,V,S\n"
			p := profile.MustParseProfile(src)
			for _, qs := range queries {
				diags := analysis.Vet(p, tpq.MustParse(qs))
				wantClean := analysis.ErrorCount(diags) == 0
				var first *engine.Rejection
				for i, sub := range subjects {
					err := sub.search(tpq.MustParse(qs), p)
					if accepted := err == nil; accepted != wantClean {
						t.Errorf("%s: vet clean=%v but Search err=%v\nprofile:\n%s\nquery: %s",
							sub.name, wantClean, err, src, qs)
					}
					if err == nil {
						continue
					}
					var rej *engine.Rejection
					if !errors.As(err, &rej) {
						t.Errorf("%s: rejection is a %T (%v), want *engine.Rejection", sub.name, err, err)
						continue
					}
					if i == 0 {
						first = rej
						if !hasError(diags, rej.Check) {
							t.Errorf("rejection cites %s but vet reports no such error\nprofile:\n%s\nquery: %s",
								rej.Check, src, qs)
						}
					} else if first != nil && (rej.Check != first.Check || rej.Error() != first.Error()) {
						t.Errorf("%s rejects with (%s) %q, %s with (%s) %q",
							sub.name, rej.Check, rej, subjects[0].name, first.Check, first)
					}
				}
			}
		}
	}
}

// hasError reports whether ds holds an error-severity diagnostic with
// the given check ID.
func hasError(ds []analysis.Diagnostic, id string) bool {
	for _, d := range ds {
		if d.ID == id && d.Severity == analysis.SevError {
			return true
		}
	}
	return false
}
