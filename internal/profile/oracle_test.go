package profile

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tpq"
)

// oracleApply and oracleEncodeOptional are SR.Apply and
// SR.EncodeOptional as they stood before both became callers of
// rewrite: two copies of one body that differ in (optional, weight).
// They are kept verbatim so TestRewriteMatchesOracle can hold rewrite to
// them.
func oracleApply(sr *SR, q *tpq.Query) (*tpq.Query, bool) {
	binding, ok := sr.bind(q)
	if !ok {
		return q, false
	}
	out := q.Clone()
	switch sr.Kind {
	case SRAdd:
		if !applyAdd(out, binding, sr.Concl, false, 0) {
			return q, false
		}
	case SRDelete:
		if !applyDelete(out, binding, sr.Concl, false, 0) {
			return q, false
		}
	case SRReplace:
		if !applyDelete(out, binding, sr.ReplWhat, false, 0) {
			return q, false
		}
		if !applyAdd(out, binding, sr.ReplWith, false, 0) {
			return q, false
		}
	case SRRelax:
		if !applyRelax(out, binding, sr.Concl) {
			return q, false
		}
	}
	return out, true
}

func oracleEncodeOptional(sr *SR, q *tpq.Query) (*tpq.Query, bool) {
	binding, ok := sr.bind(q)
	if !ok {
		return q, false
	}
	w := sr.EffectiveWeight()
	out := q.Clone()
	switch sr.Kind {
	case SRAdd:
		if !applyAdd(out, binding, sr.Concl, true, w) {
			return q, false
		}
	case SRDelete:
		if !applyDelete(out, binding, sr.Concl, true, w) {
			return q, false
		}
	case SRReplace:
		if !applyDelete(out, binding, sr.ReplWhat, true, w) {
			return q, false
		}
		if !applyAdd(out, binding, sr.ReplWith, true, w) {
			return q, false
		}
	case SRRelax:
		// Edge relaxation is already non-filtering in spirit (every
		// pc-match is an ad-match); the literal rewrite is the encoding.
		if !applyRelax(out, binding, sr.Concl) {
			return q, false
		}
	}
	return out, true
}

// TestRewriteMatchesOracle: Apply and EncodeOptional build exactly the
// queries the two former bodies built (every node, predicate, optional
// flag and weight), accept and refuse the same rules, and leave their
// input untouched, over every action kind on seeded random rules and
// queries.
func TestRewriteMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	phrases := []string{"a", "b", "c"}
	ph := func() string { return phrases[r.Intn(len(phrases))] }
	actions := []func() string{
		func() string { return fmt.Sprintf("add ftcontains(description, %q)", ph()) },
		func() string { return fmt.Sprintf("add pc(description, extra) & ftcontains(extra, %q)", ph()) },
		func() string { return fmt.Sprintf("add car.price < %d", 100*(1+r.Intn(30))) },
		func() string { return fmt.Sprintf("remove ftcontains(description, %q)", ph()) },
		func() string { return fmt.Sprintf("remove ftcontains(car, %q)", ph()) },
		func() string { return "remove car.price < 2000" },
		func() string { return "remove pc(car, description)" },
		func() string {
			return fmt.Sprintf("replace ftcontains(description, %q) with ftcontains(description, %q)", ph(), ph())
		},
		func() string { return "relax pc(car, description)" },
		func() string { return fmt.Sprintf("add ftcontains(engine, %q)", ph()) }, // unbound: never applies
	}
	var applied, refused int
	for i := 0; i < 2000; i++ {
		weight := ""
		if r.Intn(2) == 0 {
			weight = fmt.Sprintf(" weight %g", 0.5*float64(1+r.Intn(4)))
		}
		cond := "pc(car, description)"
		if r.Intn(2) == 0 {
			cond += fmt.Sprintf(" & ftcontains(description, %q)", ph())
		}
		src := fmt.Sprintf("sr s%s: if %s then %s", weight, cond, actions[r.Intn(len(actions))]())
		sr := MustParseProfile(src).SRs[0]

		qs := "//car[./description"
		if r.Intn(3) > 0 {
			qs += fmt.Sprintf("[. ftcontains %q and . ftcontains %q]", ph(), ph())
		}
		if r.Intn(2) == 0 {
			qs += " and price < 2000"
		}
		q := tpq.MustParse(qs + "]")
		before := q.Clone()

		for _, c := range []struct {
			name        string
			got, oracle func(*tpq.Query) (*tpq.Query, bool)
		}{
			{"Apply", sr.Apply, func(q *tpq.Query) (*tpq.Query, bool) { return oracleApply(sr, q) }},
			{"EncodeOptional", sr.EncodeOptional, func(q *tpq.Query) (*tpq.Query, bool) { return oracleEncodeOptional(sr, q) }},
		} {
			got, ok := c.got(q)
			want, wantOK := c.oracle(q)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s of %q on %s = (%s, %v), oracle (%s, %v)", c.name, src, q, got, ok, want, wantOK)
			}
			if ok {
				applied++
			} else {
				refused++
			}
		}
		if !reflect.DeepEqual(q, before) {
			t.Fatalf("%q mutated its input: %s, was %s", src, q, before)
		}
	}
	if applied == 0 || refused == 0 {
		t.Errorf("generator too narrow: %d applied, %d refused", applied, refused)
	}
}
