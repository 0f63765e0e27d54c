package engine

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/analysis"
	"repro/internal/plan"
	"repro/internal/xmldoc"
)

// literalFlockSearch is the reference the single-plan flock encoding
// (Section 6.2) replaces, kept beside the tests as their oracle: it
// evaluates every query of the flock separately and merges the results
// (rewritten-query answers get a rank bonus per flock position).
func literalFlockSearch(e *Engine, req Request) (*Response, error) {
	k := req.K
	if k == 0 {
		k = 10
	}
	flock, applied, err := analysis.Flock(req.Profile.SRs, req.Query)
	if err != nil {
		return nil, err
	}
	type scored struct {
		a     algebra.Answer
		bonus float64
	}
	best := map[xmldoc.NodeID]scored{}
	for pos, fq := range flock {
		p, err := plan.BuildWith(e.ix, fq, req.Profile, k, plan.Options{Strategy: req.Strategy, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		answers := p.Execute()
		p.Release()
		for _, a := range answers {
			bonus := float64(pos) // later flock members are more personalized
			if cur, ok := best[a.Node]; !ok || a.S+bonus > cur.a.S+cur.bonus {
				best[a.Node] = scored{a: a, bonus: bonus}
			}
		}
	}
	merged := make([]algebra.Answer, 0, len(best))
	for _, s := range best {
		a := s.a
		a.S += s.bonus
		merged = append(merged, a)
	}
	sortAnswers(merged, algebra.NewRanker(req.Profile), algebra.ModeForProfile(req.Profile))
	if len(merged) > k {
		merged = merged[:k]
	}
	return &Response{
		EncodedQuery: flock[len(flock)-1],
		AppliedSRs:   applied,
		PlanShape:    fmt.Sprintf("literal flock of %d queries", len(flock)),
		Results:      e.materialize(merged),
	}, nil
}

func sortAnswers(as []algebra.Answer, r *algebra.Ranker, mode algebra.Mode) {
	// Insertion sort with the ranker comparison: answer lists here are
	// small (k-bounded merges).
	for i := 1; i < len(as); i++ {
		for j := i; j > 0; j-- {
			c := r.Compare(&as[j], &as[j-1], mode)
			if c > 0 || (c == 0 && as[j].Node < as[j-1].Node) {
				as[j], as[j-1] = as[j-1], as[j]
			} else {
				break
			}
		}
	}
}
