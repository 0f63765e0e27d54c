package analysis

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/tpq"
	"repro/internal/workload"
)

// mixedFig2SRs is Fig. 2's p1/p3 conflict cycle with priorities on the
// two rules of the cycle and none on p2: the priorities decide the
// cycle, so the profile is accepted with p1 firing before p3.
const mixedFig2SRs = `
sr p1 priority 1: if pc(car, description) & ftcontains(description, "low mileage") then remove ftcontains(car, "good condition")
sr p2: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
sr p3 priority 2: if pc(car, description) & ftcontains(description, "good condition") then remove ftcontains(description, "low mileage")
`

func TestConflictCycleDecidedByItsPriorities(t *testing.T) {
	q := tpq.MustParse(paperQ)
	rep, err := AnalyzeSRs(profile.MustParseProfile(mixedFig2SRs).SRs, q)
	if err != nil {
		t.Fatalf("a cycle whose rules all carry priorities must follow them: %v", err)
	}
	// p2 is a conflict target of p1, so it fires first; p1 (priority 1)
	// then fires before p3 (priority 2).
	if want := []int{1, 0, 2}; !reflect.DeepEqual(rep.Order, want) || rep.Cyclic {
		t.Errorf("order = %v (cyclic %v), want %v", rep.Order, rep.Cyclic, want)
	}
	if !reflect.DeepEqual(rep.Conflicts, [][]int{{1, 2}, nil, {0}}) {
		t.Errorf("conflicts = %v: the report keeps every arc", rep.Conflicts)
	}
	if ds := Vet(profile.MustParseProfile(mixedFig2SRs), q); findDiag(ds, DiagSRConflictCycle) != nil {
		t.Errorf("vet still reports SR001: %v", ds)
	}

	// A cycle with an unprioritized rule, or whose rules share one
	// priority, stays an error.
	for _, src := range []string{
		strings.Replace(mixedFig2SRs, "sr p3 priority 2:", "sr p3:", 1),
		strings.Replace(mixedFig2SRs, "sr p3 priority 2:", "sr p3 priority 1:", 1),
	} {
		rep, err := AnalyzeSRs(profile.MustParseProfile(src).SRs, q)
		if err == nil || !rep.Cyclic || !reflect.DeepEqual(rep.Cycle, []string{"p1", "p3"}) {
			t.Errorf("want SR001 on cycle [p1 p3], got %v (report %+v)\n%s", err, rep, src)
		}
	}
}

// affectedByMixedPriorities lists the checks whose findings depend on
// the application order, so a profile the fix newly accepts (or orders)
// may change them.
var affectedByMixedPriorities = map[string]bool{
	DiagSRConflictCycle: true, DiagSRShadowed: true, DiagUnsatRewrite: true,
	DiagSRProbeCycle: true, DiagVORNoMatch: true, DiagKORNoMatch: true,
}

// prioritizedCycle reports whether priorities break a conflict cycle:
// every rule on it has one, and they are not all equal.
func prioritizedCycle(rules []*profile.SR, cycle []string) bool {
	prio := map[string]int{}
	for _, sr := range rules {
		prio[sr.Name] = sr.Priority
	}
	distinct := map[int]bool{}
	for _, name := range cycle {
		if prio[name] == 0 {
			return false
		}
		distinct[prio[name]] = true
	}
	return len(distinct) > 1
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func queryStrings(qs []*tpq.Query) []string {
	var out []string
	for _, q := range qs {
		if q == nil {
			out = append(out, "<nil>")
			continue
		}
		out = append(out, q.String())
	}
	return out
}

// matchOracle holds the one-pass analysis of (p, q) to the oracle. The
// only differences it allows are the cases where the oracle rejected a
// conflict cycle that priorities break (changed reports whether q is
// one; accepted whether the analysis now accepts it), and it checks
// those against the mixed-priority rule instead.
func matchOracle(t *testing.T, label string, p *profile.Profile, q *tpq.Query) (changed, accepted bool) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		var rules []string
		for _, sr := range p.SRs {
			rules = append(rules, fmt.Sprintf("%s (priority %d)", sr, sr.Priority))
		}
		for _, v := range p.VORs {
			rules = append(rules, fmt.Sprintf("%s (priority %d)", v, v.Priority))
		}
		t.Errorf("%s: %s\nrules:\n%s\nquery: %s", label, fmt.Sprintf(format, args...), strings.Join(rules, "\n"), q)
	}

	oRep, oErr := oracleAnalyzeSRs(p.SRs, q)
	rep, err := AnalyzeSRs(p.SRs, q)
	changed = oErr != nil && prioritizedCycle(p.SRs, oRep.Cycle)
	accepted = changed && err == nil
	switch {
	case !changed:
		if errText(err) != errText(oErr) || !reflect.DeepEqual(rep, oRep) {
			fail("report %+v (%v), oracle %+v (%v)", rep, err, oRep, oErr)
		}
	case !reflect.DeepEqual(rep.Applicable, oRep.Applicable) || !reflect.DeepEqual(rep.Conflicts, oRep.Conflicts):
		fail("applicability or conflict arcs moved: %+v, oracle %+v", rep, oRep)
	case err != nil:
		if prioritizedCycle(p.SRs, rep.Cycle) {
			fail("rejected cycle %v, which its priorities break", rep.Cycle)
		}
	default:
		// Every applicable rule fires in the order, and every conflict arc
		// is kept except one pointing against two rules' priorities.
		pos := map[int]int{}
		for k, i := range rep.Order {
			pos[i] = k
		}
		for i, ok := range rep.Applicable {
			if _, in := pos[i]; in != ok {
				fail("order %v vs applicable %v", rep.Order, rep.Applicable)
			}
		}
		for i, targets := range rep.Conflicts {
			for _, j := range targets {
				against := p.SRs[i].Priority != 0 && p.SRs[j].Priority != 0 && p.SRs[i].Priority < p.SRs[j].Priority
				if !against && pos[j] > pos[i] {
					fail("order %v fires %d before its conflict target %d", rep.Order, i, j)
				}
			}
		}
	}

	flock, applied, ferr := Flock(p.SRs, q)
	enc, encApplied, eerr := EncodeFlock(p.SRs, q)
	if !changed {
		oFlock, oApplied, oFerr := oracleFlock(p.SRs, q)
		if errText(ferr) != errText(oFerr) || !reflect.DeepEqual(queryStrings(flock), queryStrings(oFlock)) ||
			!reflect.DeepEqual(applied, oApplied) {
			fail("flock %v %v (%v), oracle %v %v (%v)", queryStrings(flock), applied, ferr, queryStrings(oFlock), oApplied, oFerr)
		}
		oEnc, oEncApplied, oEerr := oracleEncodeFlock(p.SRs, q)
		if errText(eerr) != errText(oEerr) || !reflect.DeepEqual(queryStrings([]*tpq.Query{enc}), queryStrings([]*tpq.Query{oEnc})) ||
			!reflect.DeepEqual(encApplied, oEncApplied) {
			fail("encoding %v %v (%v), oracle %v %v (%v)", enc, encApplied, eerr, oEnc, oEncApplied, oEerr)
		}
	} else if accepted && (ferr != nil || eerr != nil || flock[0] != q || len(flock) != len(applied)+1) {
		fail("accepted, but flock %v %v (%v), encoding %v (%v)", queryStrings(flock), applied, ferr, enc, eerr)
	}

	if got, want := DetectAmbiguity(p.VORs), oracleDetectAmbiguity(p.VORs); !reflect.DeepEqual(got, want) {
		fail("ambiguity %+v, oracle %+v", got, want)
	}
	if got, want := DetectAmbiguityPrioritized(p.VORs), oracleDetectAmbiguityPrioritized(p.VORs); !reflect.DeepEqual(got, want) {
		fail("prioritized ambiguity %+v, oracle %+v", got, want)
	}

	// The probes analyze each rule's own trigger, where the fix can
	// decide a cycle too.
	probeChanged := false
	for _, sr := range p.SRs {
		if cond, err := sr.CondQuery(); err == nil {
			if r, err := oracleAnalyzeSRs(p.SRs, cond); err != nil && prioritizedCycle(p.SRs, r.Cycle) {
				probeChanged = true
			}
		}
	}
	for _, vq := range []*tpq.Query{nil, q} {
		got, want := Vet(p, vq), oracleVet(p, vq)
		if !probeChanged && (vq == nil || !changed) {
			if !reflect.DeepEqual(got, want) {
				fail("vet (query %v):\n%v\noracle:\n%v", vq != nil, got, want)
			}
			continue
		}
		keep := func(ds []Diagnostic) []Diagnostic {
			var out []Diagnostic
			for _, d := range ds {
				if !affectedByMixedPriorities[d.ID] {
					out = append(out, d)
				}
			}
			return out
		}
		if !reflect.DeepEqual(keep(got), keep(want)) {
			fail("vet outside the order-dependent checks (query %v):\n%v\noracle:\n%v", vq != nil, got, want)
		}
		if vq != nil && (findDiag(got, DiagSRConflictCycle) != nil) != (err != nil) {
			fail("SR001 in %v disagrees with the analysis error %v", got, err)
		}
	}
	return changed, accepted
}

// fixtureCases are the oracle test's fixed inputs: the example profiles
// and the Fig. 2 scoping-rule sets on the paper's query and on Fig. 5's,
// and Fig. 5's profiles at zero to four KORs on its query.
func fixtureCases(t testing.TB) (names []string, profs []*profile.Profile, queries []*tpq.Query) {
	add := func(name string, p *profile.Profile, q *tpq.Query) {
		names, profs, queries = append(names, name), append(profs, p), append(queries, q)
	}
	srcs := map[string]string{
		"fig2":           workload.Fig2ProfileSrc,
		"plan1":          workload.Plan1ProfileSrc,
		"fig2-mixed":     mixedFig2SRs,
		"fig2-cycle":     strings.ReplaceAll(workload.Fig2ProfileSrc, " priority ", " weight "),
		"cyclic":         cyclicSRs,
		"fig2-equal-p13": strings.Replace(mixedFig2SRs, "sr p3 priority 2:", "sr p3 priority 1:", 1),
	}
	files, err := filepath.Glob("../../examples/profiles/*.profile")
	if err != nil || len(files) == 0 {
		t.Fatalf("example profiles: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for name, src := range srcs {
		p := profile.MustParseProfile(src)
		for _, q := range []*tpq.Query{workload.PaperQuery(), workload.Fig5Query()} {
			add(name, p, q)
		}
	}
	for n := 0; n <= 4; n++ {
		add(fmt.Sprintf("fig5-%d", n), workload.Fig5Profile(n), workload.Fig5Query())
	}
	return names, profs, queries
}

// randomCase draws a (profile, query) pair over a vocabulary small
// enough that scoping rules keep colliding: conflict arcs, cycles and
// mixed priorities are common, and so are ambiguous VOR sets.
func randomCase(r *rand.Rand) (src, query string) {
	phrases := []string{"a", "b", "c"}
	ph := func() string { return phrases[r.Intn(len(phrases))] }
	prio := func() string {
		if r.Intn(2) == 0 {
			return ""
		}
		return fmt.Sprintf(" priority %d", 1+r.Intn(3))
	}
	var sb strings.Builder
	sb.WriteString("order colors: red > blue > green\n")
	for i, n := 0, r.Intn(5); i < n; i++ {
		cond := fmt.Sprintf("pc(car, description) & ftcontains(description, %q)", ph())
		var act string
		switch r.Intn(7) {
		case 0:
			act = fmt.Sprintf("remove ftcontains(description, %q)", ph())
		case 1:
			act = fmt.Sprintf("add ftcontains(description, %q)", ph())
		case 2:
			act = fmt.Sprintf("replace ftcontains(description, %q) with ftcontains(description, %q)", ph(), ph())
		case 3:
			act = fmt.Sprintf("remove ftcontains(car, %q)", ph())
		case 4:
			act = fmt.Sprintf("add car.price < %d", 100*(1+r.Intn(30)))
		case 5:
			cond, act = "pc(car, description)", "relax pc(car, description)"
		case 6:
			act = "remove pc(car, description)"
		}
		fmt.Fprintf(&sb, "sr s%d%s: if %s then %s\n", i, prio(), cond, act)
	}
	vors := []string{
		`x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y`,
		`x.tag = car & y.tag = car & x.mileage < y.mileage => x < y`,
		`x.tag = car & y.tag = car & colors(x.color, y.color) => x < y`,
		`x.tag = car & y.tag = car & x.hp = 200 & y.hp < 200 & x.mileage < y.mileage => x < y`,
		`x.tag = boat & y.tag = boat & x.length > y.length => x < y`,
	}
	for i, n := 0, r.Intn(4); i < n; i++ {
		fmt.Fprintf(&sb, "vor w%d%s: %s\n", i, prio(), vors[r.Intn(len(vors))])
	}
	if r.Intn(3) == 0 {
		sb.WriteString(`kor k: x.tag = boat & y.tag = boat & ftcontains(x, "sloop") => x < y` + "\n")
	}
	var preds []string
	for _, p := range phrases {
		if r.Intn(3) > 0 {
			preds = append(preds, fmt.Sprintf(". ftcontains %q", p))
		}
	}
	query = "//car[./description"
	if len(preds) > 0 {
		query += "[" + strings.Join(preds, " and ") + "]"
	}
	if r.Intn(2) == 0 {
		query += " and price < 2000"
	}
	return sb.String(), query + "]"
}

// TestAnalysisMatchesOracle: the one-pass analysis — one DFS, one order
// walk, reports handed to the vet suite — reproduces the oracle's
// reports, flocks, encodings, applied lists, ambiguity witnesses and
// diagnostics on the fixtures and on 2,000 seeded random cases, except
// where priorities now decide a conflict cycle.
func TestAnalysisMatchesOracle(t *testing.T) {
	names, profs, queries := fixtureCases(t)
	for i := range names {
		changed, accepted := matchOracle(t, names[i], profs[i], queries[i])
		if want := names[i] == "fig2-mixed" && queries[i].String() == workload.PaperQuery().String(); accepted != want || changed != want {
			t.Errorf("%s on %s: changed %v, accepted %v; only fig2-mixed on the paper's query may move", names[i], queries[i], changed, accepted)
		}
	}
	r := rand.New(rand.NewSource(30))
	var changed, accepted int
	for i := 0; i < 2000; i++ {
		src, qs := randomCase(r)
		p, err := profile.ParseProfile(src)
		if err != nil {
			t.Fatalf("case %d does not parse: %v\n%s", i, err, src)
		}
		c, a := matchOracle(t, fmt.Sprintf("case %d", i), p, tpq.MustParse(qs))
		if c {
			changed++
		}
		if a {
			accepted++
		}
	}
	// The generator must reach the fix, in both directions.
	if accepted == 0 || changed == accepted {
		t.Errorf("random cases: %d decided by priorities, %d of them accepted", changed, accepted)
	}
	t.Logf("random cases: %d decided by priorities, %d of them accepted", changed, accepted)
}

// FuzzAnalysisMatchesOracle is TestAnalysisMatchesOracle over arbitrary
// (profile, query) pairs the parsers accept.
func FuzzAnalysisMatchesOracle(f *testing.F) {
	r := rand.New(rand.NewSource(30))
	for i := 0; i < 8; i++ {
		src, qs := randomCase(r)
		f.Add(src, qs)
	}
	f.Add(mixedFig2SRs, paperQ)
	f.Add(workload.Fig2ProfileSrc, paperQ)
	f.Add(cyclicSRs, `//car[./description[. ftcontains "alpha" and . ftcontains "beta"]]`)
	f.Fuzz(func(t *testing.T, src, qs string) {
		p, err := profile.ParseProfile(src)
		if err != nil {
			return
		}
		q, err := tpq.Parse(qs)
		if err != nil {
			return
		}
		matchOracle(t, "fuzz", p, q)
	})
}
