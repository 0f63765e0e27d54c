package pimento

// Benchmark harness for the paper's evaluation artifacts. One benchmark
// per table/figure:
//
//	BenchmarkTable1INEX  — Table 1 (INEX effectiveness, 8 topics)
//	BenchmarkFig6        — Fig. 6 (Push plan × document size × #KORs)
//	BenchmarkFig7        — Fig. 7 (four plans × #KORs on a large doc)
//	BenchmarkAblation*   — Section 7.2 design observations
//
// The Fig. 6/7 benchmarks use sub-benchmarks: run e.g.
//
//	go test -bench 'Fig6/size=1M' -benchmem
//
// Absolute times differ from the paper's 2007 hardware; the claims under
// test are the shapes (sub-linear size scaling, Push ≤ Naive).

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/inex"
	"repro/internal/plan"
	"repro/internal/text"
	"repro/internal/twig"
	"repro/internal/workload"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// benchSizes trims the paper's sweep to keep `go test -bench=.` runnable
// in reasonable time; pass -bench 'Fig6' after editing to widen.
var benchSizes = []int{101 * 1024, 468 * 1024, 1024 * 1024, 5*1024*1024 + 700*1024}

// fig7Size is Fig. 7's document size for benchmarks (the paper uses
// 10 MB; 5.7 MB keeps default runs fast while preserving the plan
// ordering — cmd/experiments runs the full 10 MB version).
const fig7Size = 5*1024*1024 + 700*1024

var (
	ixCacheMu sync.Mutex
	ixCache   = map[int]*index.Index{}
)

func xmarkIndex(size int) *index.Index {
	ixCacheMu.Lock()
	defer ixCacheMu.Unlock()
	if ix, ok := ixCache[size]; ok {
		return ix
	}
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, size)
	ix := index.Build(doc, text.Pipeline{})
	ixCache[size] = ix
	return ix
}

// BenchmarkTable1INEX regenerates Table 1 per iteration (collection
// build + 8 topics × element types × personalized top-5 runs).
func BenchmarkTable1INEX(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := inex.RunTable1(42, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFig6 measures the Push plan on increasing document sizes and
// KOR counts (query time only; the index is prebuilt, as in the paper).
func BenchmarkFig6(b *testing.B) {
	for _, size := range benchSizes {
		ix := xmarkIndex(size)
		for n := 1; n <= 4; n++ {
			prof := workload.Fig5Profile(n)
			b.Run(fmt.Sprintf("size=%s/kors=%d", xmark.SizeLabel(size), n), func(b *testing.B) {
				q := workload.Fig5Query()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := plan.Build(ix, q, prof, 10, plan.Push)
					if err != nil {
						b.Fatal(err)
					}
					if got := p.Execute(); len(got) == 0 {
						b.Fatal("no answers")
					}
				}
			})
		}
	}
}

// benchParallelisms are the worker counts the parallel benchmarks sweep:
// the sequential reference path plus GOMAXPROCS (deduplicated on
// single-CPU machines, where they coincide).
func benchParallelisms() []int {
	ps := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		ps = append(ps, n)
	}
	return ps
}

// BenchmarkFig7 compares the four plan strategies on one large document,
// each at sequential (par=1) and fully parallel (par=GOMAXPROCS)
// execution, reporting beside the time how many answers reached vor and
// the final sort (vor_in/op, sort_in/op). The parallel rows measure the tentpole claim: partitioned
// execution with the shared top-k threshold returns identical answers in
// less wall-clock time.
func BenchmarkFig7(b *testing.B) {
	ix := xmarkIndex(fig7Size)
	for _, strat := range plan.Strategies {
		for n := 1; n <= 4; n++ {
			prof := workload.Fig5Profile(n)
			for _, par := range benchParallelisms() {
				b.Run(fmt.Sprintf("plan=%s/kors=%d/par=%d", strat, n, par), func(b *testing.B) {
					q := workload.Fig5Query()
					b.ReportAllocs()
					var p *plan.Plan
					for i := 0; i < b.N; i++ {
						var err error
						p, err = plan.BuildWith(ix, q, prof, 10,
							plan.Options{Strategy: strat, Parallelism: par})
						if err != nil {
							b.Fatal(err)
						}
						if got := p.Execute(); len(got) == 0 {
							b.Fatal("no answers")
						}
					}
					// Where the plan cuts: how many answers got value keys
					// and how many reached the final sort.
					for _, s := range p.Stats() {
						switch s.Kind() {
						case "vor":
							b.ReportMetric(float64(s.In), "vor_in/op")
						case "sort":
							b.ReportMetric(float64(s.In), "sort_in/op") // the last sort's wins
						}
					}
				})
			}
		}
	}
}

// BenchmarkParScale sweeps document size × worker count on the Push
// plan (kors=4) — the scaling surface behind the auto-parallelism
// threshold (the committed verdict is the benchmark's
// plan.execute_par1_us / par2_us rows). Explicit worker counts above
// GOMAXPROCS are included deliberately: they expose the partitioning
// overhead floor.
func BenchmarkParScale(b *testing.B) {
	for _, size := range benchSizes {
		ix := xmarkIndex(size)
		prof := workload.Fig5Profile(4)
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("size=%s/par=%d", xmark.SizeLabel(size), par), func(b *testing.B) {
				q := workload.Fig5Query()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := plan.BuildWith(ix, q, prof, 10,
						plan.Options{Strategy: plan.Push, Parallelism: par})
					if err != nil {
						b.Fatal(err)
					}
					if got := p.Execute(); len(got) == 0 {
						b.Fatal("no answers")
					}
				}
			})
		}
	}
}

// BenchmarkAblationKOROrder contrasts applying the highest-contribution
// KOR first vs last (Section 7.2: "applying the KOR which contributes
// the highest score first is beneficial").
func BenchmarkAblationKOROrder(b *testing.B) {
	ix := xmarkIndex(1024 * 1024)
	base := workload.Fig5Profile(4)
	for _, variant := range []struct {
		name    string
		reverse bool
	}{{"best-first", false}, {"worst-first", true}} {
		prof := *base
		kors := append(prof.KORs[:0:0], prof.KORs...)
		if variant.reverse {
			for i, j := 0, len(kors)-1; i < j; i, j = i+1, j-1 {
				kors[i], kors[j] = kors[j], kors[i]
			}
			for i := range kors {
				c := *kors[i]
				c.Priority = i + 1
				kors[i] = &c
			}
		}
		prof.KORs = kors
		b.Run(variant.name, func(b *testing.B) {
			q := workload.Fig5Query()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := plan.Build(ix, q, &prof, 10, plan.Push)
				if err != nil {
					b.Fatal(err)
				}
				p.Execute()
			}
		})
	}
}

// BenchmarkAblationTwigAccess contrasts the scan + per-candidate access
// path with the holistic twig semijoin on a structure-heavy query.
func BenchmarkAblationTwigAccess(b *testing.B) {
	ix := xmarkIndex(1024 * 1024)
	q := MustParseQuery(`//person[./address[./city and ./country] and .//business]`)
	for _, variant := range []struct {
		name string
		opts plan.Options
	}{
		{"scan", plan.Options{Strategy: plan.Push}},
		{"twig", plan.Options{Strategy: plan.Push, AccessPath: plan.AccessTwigJoin}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := plan.BuildWith(ix, q, nil, 10, variant.opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := p.Execute(); len(got) == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}

// BenchmarkTwigJoin is the access-path comparison surface (the
// committed verdict is the benchmark's plan.execute_scan_us /
// plan.execute_twigjoin_us rows):
//
//   - fig7: the four Fig. 7 plan strategies on the Fig. 5 workload
//     (kors=4) at the large document, scan vs twigjoin;
//   - size sweep: a structure-heavy query (three structural predicates,
//     no full text) across 101K–5.7M, scan vs twigjoin;
//   - access: the same query and sizes with the candidate generation
//     isolated (matcher scan vs fused holistic join, no scoring
//     pipeline) — the pure access-path speedup.
//
// The Fig. 5 query's cost is dominated by its full-text predicate, so
// fig7 mostly bounds the twigjoin overhead on FT-heavy plans; the size
// sweep and the access group carry the speedup claim.
func BenchmarkTwigJoin(b *testing.B) {
	accesses := []plan.AccessPath{plan.AccessScan, plan.AccessTwigJoin}
	ix := xmarkIndex(fig7Size)
	prof := workload.Fig5Profile(4)
	for _, strat := range plan.Strategies {
		for _, access := range accesses {
			b.Run(fmt.Sprintf("fig7/plan=%s/access=%s", strat, access), func(b *testing.B) {
				q := workload.Fig5Query()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := plan.BuildWith(ix, q, prof, 10,
						plan.Options{Strategy: strat, AccessPath: access})
					if err != nil {
						b.Fatal(err)
					}
					if got := p.Execute(); len(got) == 0 {
						b.Fatal("no answers")
					}
				}
			})
		}
	}
	for _, size := range benchSizes {
		ix := xmarkIndex(size)
		for _, access := range accesses {
			b.Run(fmt.Sprintf("size=%s/access=%s", xmark.SizeLabel(size), access), func(b *testing.B) {
				q := MustParseQuery(`//person[./address[./city and ./country] and .//business]`)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p, err := plan.BuildWith(ix, q, nil, 10,
						plan.Options{Strategy: plan.Push, AccessPath: access})
					if err != nil {
						b.Fatal(err)
					}
					if got := p.Execute(); len(got) == 0 {
						b.Fatal("no answers")
					}
				}
			})
		}
	}
	for _, size := range benchSizes {
		ix := xmarkIndex(size)
		b.Run(fmt.Sprintf("access/size=%s/access=scan", xmark.SizeLabel(size)), func(b *testing.B) {
			q := MustParseQuery(`//person[./address[./city and ./country] and .//business]`)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := algebra.NewMatcher(ix, q)
				n := 0
				for _, e := range ix.Elements("person") {
					if m.MatchRequired(e) {
						n++
					}
				}
				if n == 0 {
					b.Fatal("no candidates")
				}
			}
		})
		b.Run(fmt.Sprintf("access/size=%s/access=twigjoin", xmark.SizeLabel(size)), func(b *testing.B) {
			q := MustParseQuery(`//person[./address[./city and ./country] and .//business]`)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := twig.NewEvaluator(ix, q)
				ids, _, err := ev.Distinguished(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if len(ids) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

// BenchmarkQuickstart measures the end-to-end running example (Fig. 1
// database, Fig. 2 profile) including personalization static analysis.
func BenchmarkQuickstart(b *testing.B) {
	eng, err := OpenString(workload.Fig1XML)
	if err != nil {
		b.Fatal(err)
	}
	q := workload.PaperQuery()
	prof := MustParseProfile(workload.Plan1ProfileSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.Search(q, prof, WithK(5))
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Results) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkIndexBuild measures index construction on a 1 MB document
// (excluded from the query-time figures, reported separately).
func BenchmarkIndexBuild(b *testing.B) {
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, 1024*1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.Build(doc, text.Pipeline{})
	}
}

// BenchmarkPrepare measures what one PUT /docs costs below the HTTP
// layer on a Fig. 7-sized document, stage by stage: parse, index build
// (which also fingerprints), and the whole of parse + build +
// fingerprint. MB/s is over the XML source length in every stage.
func BenchmarkPrepare(b *testing.B) {
	var sb strings.Builder
	if err := xmark.GenerateSized(xmark.Config{Seed: 42}, fig7Size).WriteXML(&sb, ""); err != nil {
		b.Fatal(err)
	}
	src := sb.String()
	parsed, err := xmldoc.ParseString(src)
	if err != nil {
		b.Fatal(err)
	}
	stages := []struct {
		name string
		run  func()
	}{
		{"parse", func() { _, _ = xmldoc.ParseString(src) }},
		{"build", func() { index.Build(parsed, text.DefaultPipeline) }},
		{"all", func() {
			doc, _ := xmldoc.ParseString(src)
			index.ContentFingerprint(index.Build(doc, text.DefaultPipeline))
		}},
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.run()
			}
		})
	}
}
