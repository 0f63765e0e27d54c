package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/tpq"
	"repro/internal/workload"
)

// oracleAnalyzeProfile is AnalyzeProfile as it stood before it read the
// analysis verdicts: it re-ran the conflict analysis and the flock, and
// the ambiguity check, on every call. It is kept verbatim (renamed) so
// TestAnalyzeProfileMatchesOracle can hold the verdict-backed report to
// it.
func oracleAnalyzeProfile(prof *profile.Profile, q *tpq.Query) *ProfileAnalysis {
	pa := &ProfileAnalysis{}
	tr := metrics.NewTrace()
	end := tr.Start("conflicts")
	pa.Conflicts, pa.ConflictErr = analysis.AnalyzeSRs(prof.SRs, q)
	end()
	end = tr.Start("ambiguity")
	pa.Ambiguity = analysis.DetectAmbiguityPrioritized(prof.VORs)
	end()
	if pa.ConflictErr == nil {
		end = tr.Start("flock")
		pa.Flock, pa.Applied, _ = analysis.Flock(prof.SRs, q)
		end()
	}
	pa.Trace = tr.Spans()
	return pa
}

// explainFields is what /explain renders from a ProfileAnalysis, trace
// aside.
func explainFields(pa *ProfileAnalysis) string {
	var flock []string
	for _, fq := range pa.Flock {
		flock = append(flock, fq.String())
	}
	conflictErr := ""
	if pa.ConflictErr != nil {
		conflictErr = pa.ConflictErr.Error()
	}
	return fmt.Sprintf("ambiguity=%+v conflict_error=%q applied=%q flock=%q conflicts=%+v",
		pa.Ambiguity, conflictErr, pa.Applied, flock, pa.Conflicts)
}

// TestAnalyzeProfileMatchesOracle: the explain report read from the
// verdicts — un-memoized, on a cold cache and on a warm one — carries
// the fields the re-computing report did, under one "analyze" span, and
// the verdicts' diagnostics are analysis.Vet's.
func TestAnalyzeProfileMatchesOracle(t *testing.T) {
	srcs := map[string]string{
		"fig2": fig2Rules, "plan1": plan1Rules, "ambiguous": ambiguousVORs, "cyclic": cyclicSRs,
		"fig2-workload": workload.Fig2ProfileSrc,
		"fig2-mixed": strings.NewReplacer(
			"sr p2 priority 2:", "sr p2:", "sr p3 priority 3:", "sr p3 priority 2:").Replace(fig2Rules),
	}
	files, _ := filepath.Glob("../../examples/profiles/*.profile")
	if len(files) == 0 {
		t.Fatal("no example profiles")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	profs := map[string]*profile.Profile{}
	for name, src := range srcs {
		profs[name] = profile.MustParseProfile(src)
	}
	for n := 0; n <= 4; n++ {
		profs[fmt.Sprintf("fig5-%d", n)] = workload.Fig5Profile(n)
	}
	queries := []*tpq.Query{
		tpq.MustParse(paperQ),
		tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`),
		workload.Fig5Query(),
	}

	ctx := context.Background()
	ac := NewAnalysisCache(256)
	for name, prof := range profs {
		for _, q := range queries {
			want := explainFields(oracleAnalyzeProfile(prof, q))
			for _, c := range []struct {
				label string
				ac    *AnalysisCache
			}{{"un-memoized", nil}, {"cold", ac}, {"warm", ac}} {
				pa, err := AnalyzeProfile(ctx, c.ac, prof, q)
				if err != nil {
					t.Fatalf("%s / %s (%s): %v", name, q, c.label, err)
				}
				if got := explainFields(pa); got != want {
					t.Errorf("%s / %s (%s):\n got %s\nwant %s", name, q, c.label, got, want)
				}
				if len(pa.Trace) != 1 || pa.Trace[0].Name != "analyze" {
					t.Errorf("%s / %s (%s): trace %+v, want one analyze span", name, q, c.label, pa.Trace)
				}
			}
			pv, _ := ac.ProfileVerdict(ctx, prof)
			qv, _ := ac.QueryVerdict(ctx, prof, q)
			ds := append(append([]analysis.Diagnostic(nil), pv.Diags...), qv.Diags...)
			analysis.SortDiagnostics(ds)
			if want := analysis.Vet(prof, q); !reflect.DeepEqual(ds, want) {
				t.Errorf("%s / %s: verdict diagnostics\n%v\nvet\n%v", name, q, ds, want)
			}
		}
	}
}

// TestAnalyzeProfileReportsExpiredContext: a caller whose context ends
// while another caller's verdict fill is in flight gets the context's
// error from AnalyzeProfile (which /explain maps to 499 / 504), not an
// empty report.
func TestAnalyzeProfileReportsExpiredContext(t *testing.T) {
	ac := NewAnalysisCache(4)
	prof := profile.MustParseProfile(fig2Rules)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ac.do(context.Background(), "p\x1f"+ProfileFingerprint(prof), func() (any, []analysis.Diagnostic) {
			close(started)
			<-release
			return &ProfileVerdict{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pa, err := AnalyzeProfile(ctx, ac, prof, tpq.MustParse(paperQ))
	close(release)
	<-done
	if err != context.Canceled || pa != nil {
		t.Fatalf("AnalyzeProfile = (%v, %v), want (nil, context.Canceled)", pa, err)
	}
}
