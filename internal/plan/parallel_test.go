package plan

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// TestParallelMatchesSequentialXMark is the headline equivalence check:
// on the XMark workload (Fig. 5 query and KOR profiles), forcing 2 and
// 8 workers must return the exact same ranked top-k answers — same
// nodes, same order, same scores — as the sequential reference path.
// Push runs these requests on its tiered source, which takes one
// worker (checkTiered asserts it), so the interleaved plans keep the
// partitioned executor covered.
func TestParallelMatchesSequentialXMark(t *testing.T) {
	doc := xmark.GenerateSized(xmark.Config{Seed: 42}, 300*1024)
	ix := index.Build(doc, text.Pipeline{})
	q := workload.Fig5Query()
	for _, nKORs := range []int{1, 4} {
		prof := workload.Fig5Profile(nKORs)
		for _, strat := range []Strategy{Naive, InterleaveNoSort, InterleaveSort} {
			for _, k := range []int{1, 5, 10, 40} {
				seq, err := BuildWith(ix, q, prof, k, Options{Strategy: strat, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				want := seq.Execute()
				for _, par := range []int{2, 8} {
					p, err := BuildWith(ix, q, prof, k, Options{Strategy: strat, Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					got := p.Execute()
					if p.Workers() < 2 {
						t.Fatalf("kors=%d %v k=%d par=%d: parallel path not engaged (workers=%d)",
							nKORs, strat, k, par, p.Workers())
					}
					assertSameRanking(t, want, got,
						fmt.Sprintf("kors=%d %v k=%d par=%d", nKORs, strat, k, par))
				}
			}
		}
	}
}

// assertSameRanking demands exact positional equality: node, K and S.
// Parallel execution must not even reorder ties, because both paths
// break them by NodeID.
func assertSameRanking(t *testing.T, want, got []algebra.Answer, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d answers, want %d\nwant: %s\ngot:  %s",
			ctx, len(got), len(want), describe(want), describe(got))
	}
	for i := range want {
		if want[i].Node != got[i].Node || want[i].K != got[i].K || want[i].S != got[i].S {
			t.Fatalf("%s: rank %d differs\nwant: %s\ngot:  %s",
				ctx, i, describe(want), describe(got))
		}
	}
}

// TestParallelMatchesSequentialDealer covers the V-ordered modes (VOR
// profiles make the rank order a partial order, where the shared bound
// must stay out of the way) plus the twig access path, on randomized
// documents.
func TestParallelMatchesSequentialDealer(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	profiles := []*profile.Profile{
		nil,
		profile.MustParseProfile(testProfile),
		profile.MustParseProfile(testProfile + "\nrank V,K,S"),
		profile.MustParseProfile(testProfile + "\nrank blend"),
		profile.MustParseProfile(`vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y`),
	}
	queries := []*tpq.Query{
		tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`),
		tpq.MustParse(`//car[price < 2000]`),
		tpq.MustParse(`//car[./description[. ftcontains "good condition" and . ftcontains "low mileage"?]]`),
	}
	for iter := 0; iter < 25; iter++ {
		doc := genDealer(r, 20+r.Intn(120))
		ix := index.Build(doc, text.Pipeline{})
		q := queries[r.Intn(len(queries))]
		prof := profiles[r.Intn(len(profiles))]
		k := 1 + r.Intn(8)
		access := AccessAuto
		if twig := r.Intn(2) == 1; twig {
			access = AccessTwigJoin
		}
		seq, err := BuildWith(ix, q, prof, k, Options{Strategy: Push, AccessPath: access, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := seq.Execute()
		for _, par := range []int{2, 3, 8} {
			p, err := BuildWith(ix, q, prof, k, Options{Strategy: Push, AccessPath: access, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got := p.Execute()
			if !sameAnswers(want, got) {
				t.Fatalf("iter %d par=%d access=%v: parallel disagrees\nq: %s\nwant: %s\ngot:  %s",
					iter, par, access, q, describe(want), describe(got))
			}
		}
	}
}

// TestParallelStatsMerge checks that merged worker stats stay coherent:
// the source operator must have consumed every candidate exactly once
// across partitions, and pruning counters must survive the merge.
func TestParallelStatsMerge(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	doc := genDealer(r, 300)
	ix := index.Build(doc, text.Pipeline{})
	prof := profile.MustParseProfile(testProfile)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	p, err := BuildWith(ix, q, prof, 5,
		Options{Strategy: Push, AccessPath: AccessScan, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Execute()
	if p.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", p.Workers())
	}
	stats := p.Stats()
	if len(stats) == 0 || stats[0].Name != "scan(car)" {
		t.Fatalf("stats = %+v", stats)
	}
	if nCars := ix.TagCount("car"); stats[0].In != nCars {
		t.Errorf("merged scan consumed %d candidates, want %d", stats[0].In, nCars)
	}
	if p.TotalPruned() <= 0 {
		t.Errorf("parallel Push plan on 300 cars should prune, got %d", p.TotalPruned())
	}
}

// TestEffectiveWorkers pins the resolution rules of the Parallelism knob.
func TestEffectiveWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	doc := genDealer(r, 30) // 30 candidates: below the auto floor
	ix := index.Build(doc, text.Pipeline{})
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	for _, tc := range []struct {
		par, want int
	}{
		{1, 1},    // explicit sequential
		{0, 1},    // auto: 30 candidates < minPartition -> sequential
		{4, 4},    // explicit parallelism is honored on small inputs
		{100, 30}, // clamped to one candidate per worker
	} {
		// The scan path knows its candidate list at Build time; the
		// twigjoin path fills it at Execute (ensureSource), where
		// effectiveWorkers resolves against the join's output instead.
		p, err := BuildWith(ix, q, nil, 3,
			Options{Strategy: Push, AccessPath: AccessScan, Parallelism: tc.par})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.effectiveWorkers(); got != tc.want {
			t.Errorf("Parallelism=%d: effectiveWorkers = %d, want %d", tc.par, got, tc.want)
		}
	}
}

// TestSharedBoundTighten checks the CAS-max semantics under concurrency:
// the bound must end at the maximum of all published values and never
// decrease along the way.
func TestSharedBoundTighten(t *testing.T) {
	b := algebra.NewSharedBound()
	if b.Load() > -1e308 {
		t.Fatalf("fresh bound = %v, want -Inf", b.Load())
	}
	b.Tighten(2)
	b.Tighten(1) // lower: ignored
	if got := b.Load(); got != 2 {
		t.Fatalf("bound = %v, want 2", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Tighten(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := b.Load(); got != 7999 {
		t.Fatalf("bound = %v, want 7999", got)
	}
}
