// Package experiments regenerates the paper's evaluation artifacts:
// Table 1 (INEX effectiveness, via internal/inex), Fig. 6 (PushtopKPrune
// query time vs document size and #KORs) and Fig. 7 (the four plans of
// Section 7.2 on a 10 MB document), plus the ablations DESIGN.md calls
// out (KOR application order, deep pushing, bound tightness).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/workload"
	"repro/internal/xmark"
)

// Fig6Row is one bar of Fig. 6: query time for PushtopKPrune at one
// document size and KOR count.
type Fig6Row struct {
	SizeBytes int
	SizeLabel string
	NumKORs   int
	Time      time.Duration
	Pruned    int
	Answers   int // matching candidates (query selectivity context)
	// Ops is the per-operator time breakdown of one profiled execution
	// (a separate run with plan timing enabled, so the best-of-trials
	// wall time above stays free of clock-read overhead). It is the
	// same OpStats.WallNS data /metrics and the slow-query log consume.
	Ops []OpTime
}

// OpTime is one operator's share of a profiled execution: self time
// (inclusive wall time minus the upstream operator's) beside the answer
// traffic, which is what shows where a plan cuts.
type OpTime struct {
	Name string
	Self time.Duration
	In   int
	Out  int
}

// opBreakdown converts a timed chain's inclusive WallNS measurements
// into per-operator self times. Stats arrive in chain order (source
// first), each operator's wall time including its upstream, so self
// time is the adjacent difference — clamped at zero against scheduler
// noise in parallel merges.
func opBreakdown(stats []algebra.OpStats) []OpTime {
	out := make([]OpTime, len(stats))
	var prev int64
	for i, s := range stats {
		out[i] = OpTime{Name: s.Name, Self: time.Duration(max(s.WallNS-prev, 0)), In: s.In, Out: s.Out}
		prev = s.WallNS
	}
	return out
}

// Fig6Config tunes the Fig. 6 sweep; zero values give the paper's setup.
type Fig6Config struct {
	Seed   int64
	Sizes  []int // defaults to xmark.PaperSizes
	MaxKOR int   // defaults to 4
	K      int   // defaults to 10
	Trials int   // timing repetitions; defaults to 3
	// Parallelism is plan.Options.Parallelism for every timed run
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Access is plan.Options.AccessPath for every timed run
	// (zero value: plan.AccessAuto).
	Access plan.AccessPath
}

func (c Fig6Config) withDefaults() Fig6Config {
	if c.Sizes == nil {
		c.Sizes = xmark.PaperSizes
	}
	if c.MaxKOR == 0 {
		c.MaxKOR = 4
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// RunFig6 reproduces Fig. 6: the Fig. 5 query under the Push plan, for
// each document size and 1..MaxKOR keyword ordering rules. Index build
// time is excluded (the paper measures query response time).
func RunFig6(cfg Fig6Config) []Fig6Row {
	cfg = cfg.withDefaults()
	var rows []Fig6Row
	for _, size := range cfg.Sizes {
		doc := xmark.GenerateSized(xmark.Config{Seed: cfg.Seed}, size)
		ix := index.Build(doc, text.Pipeline{})
		for n := 1; n <= cfg.MaxKOR; n++ {
			prof := workload.Fig5Profile(n)
			row := timePlanOpts(ix, prof,
				plan.Options{Strategy: plan.Push, Parallelism: cfg.Parallelism, AccessPath: cfg.Access},
				cfg.K, cfg.Trials)
			row.SizeBytes = size
			row.SizeLabel = xmark.SizeLabel(size)
			row.NumKORs = n
			rows = append(rows, row)
		}
	}
	return rows
}

// Fig7Row is one bar of Fig. 7: run time of one plan strategy with one
// KOR count on the 10 MB document.
type Fig7Row struct {
	Strategy plan.Strategy
	NumKORs  int
	Time     time.Duration
	Pruned   int
	Answers  int
	Ops      []OpTime // per-operator breakdown (see Fig6Row.Ops)
}

// Fig7Config tunes the Fig. 7 comparison.
type Fig7Config struct {
	Seed      int64
	SizeBytes int // defaults to 10 MB
	MaxKOR    int // defaults to 4
	K         int // defaults to 10
	Trials    int // defaults to 3
	// Parallelism is plan.Options.Parallelism for every timed run.
	Parallelism int
	// Access is plan.Options.AccessPath for every timed run.
	Access plan.AccessPath
}

func (c Fig7Config) withDefaults() Fig7Config {
	if c.SizeBytes == 0 {
		c.SizeBytes = 10 * 1024 * 1024
	}
	if c.MaxKOR == 0 {
		c.MaxKOR = 4
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// RunFig7 reproduces Fig. 7: NtpkP, NS-ILtpkP, S-ILtpkP and PtpkP on one
// large document for 1..MaxKOR keyword ordering rules.
func RunFig7(cfg Fig7Config) []Fig7Row {
	cfg = cfg.withDefaults()
	doc := xmark.GenerateSized(xmark.Config{Seed: cfg.Seed}, cfg.SizeBytes)
	ix := index.Build(doc, text.Pipeline{})
	var rows []Fig7Row
	for _, strat := range plan.Strategies {
		for n := 1; n <= cfg.MaxKOR; n++ {
			prof := workload.Fig5Profile(n)
			r := timePlanOpts(ix, prof,
				plan.Options{Strategy: strat, Parallelism: cfg.Parallelism, AccessPath: cfg.Access},
				cfg.K, cfg.Trials)
			rows = append(rows, Fig7Row{
				Strategy: strat, NumKORs: n,
				Time: r.Time, Pruned: r.Pruned, Answers: r.Answers, Ops: r.Ops,
			})
		}
	}
	return rows
}

// timePlanOpts executes the Fig. 5 query under one plan configuration,
// reporting the best-of-trials wall time (warm index, like the paper's
// repeated runs).
func timePlanOpts(ix *index.Index, prof *profile.Profile, opts plan.Options, k, trials int) Fig6Row {
	q := workload.Fig5Query()
	var best time.Duration
	var pruned, answers int
	for t := 0; t < trials; t++ {
		p, err := plan.BuildWith(ix, q, prof, k, opts)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		res := p.Execute()
		el := time.Since(start)
		if t == 0 || el < best {
			best = el
		}
		pruned = p.TotalPruned()
		answers = len(res)
	}

	// One extra profiled execution with operator timing enabled — kept
	// out of the timed trials so the two clock reads per batch never
	// skew the reported wall time.
	profiled := opts
	profiled.Timing = true
	var ops []OpTime
	if p, err := plan.BuildWith(ix, q, prof, k, profiled); err == nil {
		p.Execute()
		ops = opBreakdown(p.Stats())
	}
	return Fig6Row{Time: best, Pruned: pruned, Answers: answers, Ops: ops}
}

// FormatOpBreakdown renders one row's per-operator profile, in chain
// order: where the execution spent its time and where it cut its stream.
func FormatOpBreakdown(label string, ops []OpTime) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Operator breakdown — %s\n", label)
	fmt.Fprintf(&sb, "%-40s  self(ms)       in → out\n", "Operator")
	var total time.Duration
	for _, o := range ops {
		total += o.Self
		fmt.Fprintf(&sb, "%-40s  %8.3f  %7d → %d\n", o.Name, float64(o.Self.Microseconds())/1000, o.In, o.Out)
	}
	fmt.Fprintf(&sb, "%-40s  %8.3f\n", "total", float64(total.Microseconds())/1000)
	return sb.String()
}

// ExtraQueryRow compares Naive and Push on one of Section 7.2's "two
// other queries".
type ExtraQueryRow struct {
	Name      string
	NaiveTime time.Duration
	PushTime  time.Duration
	Answers   int
}

// RunExtraQueries measures the additional workloads the paper used to
// confirm "PushtopKPrune never does worse than Naive".
func RunExtraQueries(seed int64, sizeBytes, k, trials int) []ExtraQueryRow {
	if sizeBytes == 0 {
		sizeBytes = 5*1024*1024 + 700*1024
	}
	if k == 0 {
		k = 10
	}
	if trials == 0 {
		trials = 3
	}
	doc := xmark.GenerateSized(xmark.Config{Seed: seed}, sizeBytes)
	ix := index.Build(doc, text.Pipeline{})
	var rows []ExtraQueryRow
	for _, w := range workload.ExtraQueries() {
		row := ExtraQueryRow{Name: w.Name}
		for t := 0; t < trials; t++ {
			for _, strat := range []plan.Strategy{plan.Naive, plan.Push} {
				p, err := plan.Build(ix, w.Query, w.Profile, k, strat)
				if err != nil {
					panic(err)
				}
				start := time.Now()
				res := p.Execute()
				el := time.Since(start)
				switch strat {
				case plan.Naive:
					if t == 0 || el < row.NaiveTime {
						row.NaiveTime = el
					}
				case plan.Push:
					if t == 0 || el < row.PushTime {
						row.PushTime = el
					}
				}
				row.Answers = len(res)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatExtraQueries renders the comparison.
func FormatExtraQueries(rows []ExtraQueryRow) string {
	var sb strings.Builder
	sb.WriteString("Other queries (Section 7.2): Push never does worse than Naive\n")
	sb.WriteString("Query               naive(ms)  push(ms)  answers\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s  %9.2f  %8.2f  %d\n", r.Name,
			float64(r.NaiveTime.Microseconds())/1000,
			float64(r.PushTime.Microseconds())/1000, r.Answers)
	}
	return sb.String()
}

// AblationRow is one measurement of the KOR-ordering / deep-push
// ablations.
type AblationRow struct {
	Name    string
	NumKORs int
	Time    time.Duration
	Pruned  int
}

// RunAblations operationalizes Section 7.2's closing observations:
// applying the highest-contribution KOR first vs last, and pushing
// prunes between the score-contributing joins (PushDeep) vs the plain
// Push plan.
func RunAblations(seed int64, sizeBytes, k, trials int) []AblationRow {
	if sizeBytes == 0 {
		sizeBytes = 1024 * 1024
	}
	if k == 0 {
		k = 10
	}
	if trials == 0 {
		trials = 3
	}
	doc := xmark.GenerateSized(xmark.Config{Seed: seed}, sizeBytes)
	ix := index.Build(doc, text.Pipeline{})
	var rows []AblationRow

	// KOR order: best-first (by actual max contribution) vs worst-first.
	base := workload.Fig5Profile(4)
	kors := append([]*profile.KOR(nil), base.KORs...)
	sort.SliceStable(kors, func(i, j int) bool {
		return algebra.MaxKORScore(ix, kors[i]) > algebra.MaxKORScore(ix, kors[j])
	})
	bestFirst := *base
	bestFirst.KORs = reprioritize(kors)
	worst := make([]*profile.KOR, len(kors))
	for i := range kors {
		worst[i] = kors[len(kors)-1-i]
	}
	worstFirst := *base
	worstFirst.KORs = reprioritize(worst)

	for _, c := range []struct {
		name string
		prof *profile.Profile
		opts plan.Options
	}{
		{"push/kor-best-first", &bestFirst, plan.Options{Strategy: plan.Push}},
		{"push/kor-worst-first", &worstFirst, plan.Options{Strategy: plan.Push}},
		{"push/plain", base, plan.Options{Strategy: plan.Push}},
		{"push/deep", base, plan.Options{Strategy: plan.PushDeep}},
		{"push/access-scan", base, plan.Options{Strategy: plan.Push, AccessPath: plan.AccessScan}},
		{"push/access-twigjoin", base, plan.Options{Strategy: plan.Push, AccessPath: plan.AccessTwigJoin}},
	} {
		r := timePlanOpts(ix, c.prof, c.opts, k, trials)
		rows = append(rows, AblationRow{Name: c.name, NumKORs: 4, Time: r.Time, Pruned: r.Pruned})
	}
	return rows
}

// ParallelRow is one measurement of the parallel-execution sweep: the
// Push plan on the Fig. 5 workload at a fixed worker count.
type ParallelRow struct {
	Workers int
	Time    time.Duration
	Pruned  int
	Answers int
}

// RunParallel measures scan-partitioned execution (DESIGN.md §9) on the
// Push plan with the full Fig. 5 profile, sweeping worker counts. The
// answers are identical at every count — the sweep isolates wall-clock
// and pruning effects of partitioning plus the shared top-k threshold.
func RunParallel(seed int64, sizeBytes, k, trials int, workers []int) []ParallelRow {
	if sizeBytes == 0 {
		sizeBytes = 10 * 1024 * 1024
	}
	if k == 0 {
		k = 10
	}
	if trials == 0 {
		trials = 3
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	doc := xmark.GenerateSized(xmark.Config{Seed: seed}, sizeBytes)
	ix := index.Build(doc, text.Pipeline{})
	prof := workload.Fig5Profile(4)
	var rows []ParallelRow
	for _, w := range workers {
		r := timePlanOpts(ix, prof, plan.Options{Strategy: plan.Push, Parallelism: w}, k, trials)
		rows = append(rows, ParallelRow{Workers: w, Time: r.Time, Pruned: r.Pruned, Answers: r.Answers})
	}
	return rows
}

// FormatParallel renders the parallel sweep with speedups relative to
// the sequential row.
func FormatParallel(rows []ParallelRow) string {
	var sb strings.Builder
	sb.WriteString("Parallel execution — Push plan, Fig. 5 workload, 4 KORs\n")
	sb.WriteString("Workers   time(ms)   speedup   pruned\n")
	var seq time.Duration
	for _, r := range rows {
		if r.Workers == 1 {
			seq = r.Time
		}
	}
	for _, r := range rows {
		speed := "-"
		if seq > 0 && r.Time > 0 {
			speed = fmt.Sprintf("%.2fx", float64(seq)/float64(r.Time))
		}
		fmt.Fprintf(&sb, "%-9d %8.2f   %7s   %d\n",
			r.Workers, float64(r.Time.Microseconds())/1000, speed, r.Pruned)
	}
	return sb.String()
}

// reprioritize clones KORs with priorities matching their slice order,
// so SortKORsByPriority preserves it.
func reprioritize(kors []*profile.KOR) []*profile.KOR {
	out := make([]*profile.KOR, len(kors))
	for i, k := range kors {
		c := *k
		c.Priority = i + 1
		out[i] = &c
	}
	return out
}

// FormatFig6 renders the Fig. 6 series, one line per size, one column
// per KOR count (the paper's grouped bars).
func FormatFig6(rows []Fig6Row) string {
	byKey := map[string]map[int]Fig6Row{}
	var sizes []string
	for _, r := range rows {
		if byKey[r.SizeLabel] == nil {
			byKey[r.SizeLabel] = map[int]Fig6Row{}
			sizes = append(sizes, r.SizeLabel)
		}
		byKey[r.SizeLabel][r.NumKORs] = r
	}
	var sb strings.Builder
	sb.WriteString("Fig. 6 — PushtopKPrune query time (ms) by document size and #KORs\n")
	sb.WriteString("Size      #KORs=1   #KORs=2   #KORs=3   #KORs=4\n")
	for _, s := range sizes {
		fmt.Fprintf(&sb, "%-8s", s)
		for n := 1; n <= 4; n++ {
			if r, ok := byKey[s][n]; ok {
				fmt.Fprintf(&sb, "  %8.2f", float64(r.Time.Microseconds())/1000)
			} else {
				sb.WriteString("         -")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatFig7 renders the Fig. 7 comparison, one line per plan.
func FormatFig7(rows []Fig7Row) string {
	byStrat := map[plan.Strategy]map[int]Fig7Row{}
	var order []plan.Strategy
	for _, r := range rows {
		if byStrat[r.Strategy] == nil {
			byStrat[r.Strategy] = map[int]Fig7Row{}
			order = append(order, r.Strategy)
		}
		byStrat[r.Strategy][r.NumKORs] = r
	}
	var sb strings.Builder
	sb.WriteString("Fig. 7 — run time (ms) of four plans on the 10MB document, by #KORs\n")
	sb.WriteString("Plan        #KORs=1   #KORs=2   #KORs=3   #KORs=4\n")
	for _, s := range order {
		fmt.Fprintf(&sb, "%-10s", s)
		for n := 1; n <= 4; n++ {
			if r, ok := byStrat[s][n]; ok {
				fmt.Fprintf(&sb, "  %8.2f", float64(r.Time.Microseconds())/1000)
			} else {
				sb.WriteString("         -")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FormatAblations renders the ablation measurements.
func FormatAblations(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Ablations — Section 7.2 design observations (4 KORs)\n")
	sb.WriteString("Variant                    time(ms)   pruned\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-25s  %8.2f   %d\n",
			r.Name, float64(r.Time.Microseconds())/1000, r.Pruned)
	}
	return sb.String()
}
