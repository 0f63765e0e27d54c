package main

import (
	"fmt"
	"net/http"
	"os"
	"time"
)

// subWindows is how many equal parts a measured window is cut into.
// Every timing metric is computed per sub-window and reported as the
// figure at the edge of the quietest quarter of them (see quiet).
const subWindows = 20

// runOptions are the knobs of one end-to-end run.
type runOptions struct {
	window time.Duration
	setups int               // how many times set-up is repeated; its median is setup_s
	golden map[string]string // workload -> pinned oracle digest; nil = not checked
}

// result is everything one run of one workload measured.
type result struct {
	workload  string
	attempted int
	failed    int
	problems  []string           // why the run is not correct, if it is not
	metrics   map[string]float64 // by metric name
	counts    map[string]int     // samples behind a metric, where that is not obvious
	oracle    string             // digest of the reference answers (golden.json pins it for seed 1)
	noisy     []string           // reasons the window should not be trusted
	docs      []document         // the documents the daemon held when it stopped
	ref       *reference         // their in-process copy
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setUp starts a fresh target and brings it to the state the window
// measures from: documents and profiles loaded through the public API,
// then the warm-up prefix of the request stream. It returns how long
// each document PUT took and the warm-up samples.
func setUp(launch launcher, w *workload) (*target, *client, []time.Duration, []sample, error) {
	t, err := launch()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	c := newClient(t.base, numWorkers())
	var puts []time.Duration
	for _, d := range w.docs {
		t0 := time.Now()
		if err := c.putDoc(d); err != nil {
			_ = t.stop()
			return nil, nil, nil, nil, err
		}
		puts = append(puts, time.Since(t0))
	}
	for _, p := range w.profiles {
		status, body, err := c.do("PUT", "/profiles/"+p.name, []byte(p.body))
		if err != nil || (status != http.StatusOK && status != http.StatusCreated) {
			_ = t.stop()
			return nil, nil, nil, nil, fmt.Errorf("PUT /profiles/%s: status %d: %s %v", p.name, status, body, err)
		}
	}
	warm := drive(c, w, 0, w.warmup, 0, nil)
	return t, c, puts, warm, nil
}

// runEndToEnd measures one workload with tracing off: repeated set-up,
// an idle scrape, the measured window, another idle scrape, the
// process readings, and — with the daemon stopped — the check of every
// answer against the reference path.
func runEndToEnd(w *workload, launch launcher, opt runOptions) (*result, error) {
	res := &result{workload: w.name, metrics: map[string]float64{}, counts: map[string]int{}}

	var (
		t       *target
		c       *client
		warm    []sample
		setupS  []float64
		peaks   []float64   // each stopped set-up daemon's resident-set high-water mark, MB
		loadPut [][]float64 // per set-up, the latency of each document PUT, ms
	)
	for i := 0; i < opt.setups; i++ {
		if t != nil {
			c.close()
			rss, rssErr := peakRSSMB(t.pid)
			if err := t.stop(); err != nil {
				return nil, err
			}
			if rssErr != nil {
				return nil, rssErr
			}
			peaks = append(peaks, rss)
		}
		t0 := time.Now()
		var (
			puts []time.Duration
			err  error
		)
		t, c, puts, warm, err = setUp(launch, w)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		var putMS []float64
		for _, p := range puts {
			putMS = append(putMS, ms(p))
		}
		loadPut = append(loadPut, putMS)
	}
	defer func() {
		c.close()
		_ = t.stop() // the deliberate stop below already reported any failure
	}()

	before, err := takeScrape(c)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(t.pid)
	if err != nil {
		return nil, err
	}
	self0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}

	var (
		muts    []mutationSample
		final   []int
		writers = make(chan struct{})
		cpu     = []time.Duration{cpu0} // the daemon's CPU time at each sub-window boundary
		cpuErr  error
		sampler = make(chan struct{})
		sub     = opt.window / subWindows
	)
	started := time.Now()
	go func() {
		defer close(writers)
		if len(w.mutations) > 0 {
			muts, final = write(c, w)
		}
	}()
	go func() {
		defer close(sampler)
		for i := 1; i <= subWindows && cpuErr == nil; i++ {
			sleepUntil(started, time.Duration(i)*sub)
			var at time.Duration
			at, cpuErr = cpuTime(t.pid)
			cpu = append(cpu, at)
		}
	}()
	samples := drive(c, w, w.warmup, 0, opt.window, w.arrivals)
	<-writers
	<-sampler
	elapsed := time.Since(started)
	if cpuErr != nil {
		return nil, cpuErr
	}

	self1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	after, err := takeScrape(c)
	if err != nil {
		return nil, err
	}
	live, err := liveCounts(&delta{before: before, after: after})
	if err != nil {
		return nil, err
	}
	for k, v := range live {
		res.metrics[k] = v
	}

	// live_corpus: with the writer stopped, ask the probes again; they
	// are checked below against a corpus rebuilt from the final set.
	var probes []sample
	if w.probes > 0 {
		probes = drive(c, w, 0, w.probes, 0, nil)
	}
	rss, err := peakRSSMB(t.pid)
	if err != nil {
		return nil, err
	}
	c.close()
	if err := t.stop(); err != nil {
		return nil, err
	}

	// --- correctness, with the daemon gone ---
	good, err := verify(res, w, warm, samples, probes, final)
	if err != nil {
		return nil, err
	}
	if want, ok := opt.golden[w.name]; ok && want != res.oracle {
		res.fail(0, "reference answers digest %s, bench/golden.json pins %s: both paths changed their answers", res.oracle, want)
	}
	res.attempted += len(muts)
	if n := countFailed(muts); n > 0 {
		res.fail(n, "%d of %d mutations were refused", n, len(muts))
	}

	// --- end-to-end metrics ---
	var lat, late []float64 // of correct searches
	var endNS []int64
	ops := make([]float64, subWindows) // completed per sub-window, searches and writer slots
	for i, s := range samples {
		if n := int(s.end / sub); n < subWindows {
			ops[n]++
		}
		if !good[i] {
			continue
		}
		lat = append(lat, ms(s.latency))
		endNS = append(endNS, int64(s.end))
		late = append(late, float64(s.late)/float64(time.Microsecond))
	}
	perWindow := func(endNS []int64, vals []float64, f func(v []float64) float64) []float64 {
		return windowed(endNS, vals, int64(sub), subWindows, f)
	}
	pct := func(p float64) func(v []float64) float64 {
		return func(v []float64) float64 { return percentile(sortedCopy(v), p) }
	}
	counts := perWindow(endNS, lat, func(v []float64) float64 { return float64(len(v)) })
	qps := make([]float64, subWindows)
	for n, c := range counts {
		qps[n] = c / sub.Seconds()
	}
	res.metrics["search_qps"] = quiet(qps, "higher")
	res.metrics["search_p50_ms"] = quiet(perWindow(endNS, lat, pct(50)), "lower")
	res.metrics["search_p95_ms"] = quiet(perWindow(endNS, lat, pct(95)), "lower")
	res.counts["search_p50_ms"] = len(lat)
	res.counts["search_p95_ms"] = int(sortedCopy(counts)[0]) // the smallest sub-window

	// Mutation latency: per sub-window over the writer's slots where
	// there is a writer; where there is none, per set-up over its document
	// loads (an idle daemon).
	var mutP50, mutP90 []float64
	if len(muts) > 0 {
		var mEnd []int64
		var mLat []float64
		for _, m := range muts {
			if n := int(m.end / sub); n < subWindows {
				ops[n]++
			}
			if m.ok {
				mEnd, mLat = append(mEnd, int64(m.end)), append(mLat, ms(m.latency))
			}
		}
		mutP50, mutP90 = perWindow(mEnd, mLat, pct(50)), perWindow(mEnd, mLat, pct(90))
		res.counts["mutation_p50_ms"] = len(mLat)
	} else {
		for _, puts := range loadPut {
			mutP50, mutP90 = append(mutP50, pct(50)(puts)), append(mutP90, pct(90)(puts))
			res.counts["mutation_p50_ms"] += len(puts)
		}
	}
	res.metrics["mutation_p50_ms"] = quiet(mutP50, "lower")
	res.metrics["loadgen.mutation_p90_ms"] = quiet(mutP90, "lower")

	cpuPerOp := make([]float64, subWindows)
	for n := range cpuPerOp {
		cpuPerOp[n] = ratio(ms(cpu[n+1]-cpu[n]), ops[n])
	}
	res.metrics["cpu_ms_per_op"] = quiet(cpuPerOp, "lower")
	// Where the collector happens to be while a daemon parses its uploads
	// moves that daemon's high-water mark by tens of MB; the highest of
	// the run's daemons is what the code can reach, and is far steadier.
	res.metrics["peak_rss_mb"] = sortedCopy(append(peaks, rss))[len(peaks)]
	res.counts["peak_rss_mb"] = len(peaks) + 1
	res.metrics["setup_s"] = median(setupS)
	res.counts["setup_s"] = len(setupS)
	res.counts["cpu_ms_per_op"] = len(samples) + len(muts)

	sortedLat := sortedCopy(lat)
	res.metrics["loadgen.search_p99_ms"] = percentile(sortedLat, 99)
	res.metrics["loadgen.search_max_ms"] = percentile(sortedLat, 100)
	res.metrics["loadgen.late_p95_us"] = percentile(sortedCopy(late), 95)
	res.metrics["loadgen.cpu_share"] = ratio((self1 - self0).Seconds(), elapsed.Seconds())

	// A window is noisy when its sub-windows disagree, or when the
	// generator — not the daemon — may have set the pace.
	if spread := relSpread(qps); spread > 0.15 {
		res.noisy = append(res.noisy, fmt.Sprintf("sub-window QPS quartiles %.0f%% apart", 100*spread))
	}
	if s := res.metrics["loadgen.cpu_share"]; s > 0.5 {
		res.noisy = append(res.noisy, fmt.Sprintf("generator used %.2f of a CPU", s))
	}
	if l := res.metrics["loadgen.late_p95_us"]; l > 1000 {
		res.noisy = append(res.noisy, fmt.Sprintf("open loop sent %.0f us late at p95", l))
	}
	return res, nil
}

// verify checks every answer of the run against the reference path and
// records the reference for the traced replay. It returns, per window
// sample, whether the answer was correct.
func verify(res *result, w *workload, warm, samples, probes []sample, final []int) ([]bool, error) {
	good := make([]bool, len(samples))
	if !w.fanout {
		ref, err := newReference(w.docs, w.profiles)
		if err != nil {
			return nil, err
		}
		res.ref, res.docs = ref, w.docs
		all := make([]int32, len(w.pool))
		for i := range all {
			all[i] = int32(i)
		}
		want, err := ref.expectAll(w, all)
		if err != nil {
			return nil, err
		}
		res.oracle = poolDigest(all, want)
		bad := 0
		for i, s := range samples {
			good[i] = s.status == http.StatusOK && !s.degraded && s.answers == want[s.pool]
			if !good[i] {
				bad++
			}
		}
		res.attempted += len(samples)
		if bad > 0 {
			res.fail(bad, "%d of %d searches failed or answered differently from the sequential reference path", bad, len(samples))
		}
		return good, nil
	}

	// Fan-out over a corpus that changes under the reader: during the
	// window only the document count can be checked; the exact answers
	// are checked before the writer starts (the warm-up, against the
	// initial set) and after it stops (the probes, against a corpus
	// rebuilt from the final set).
	bad := 0
	for i, s := range samples {
		good[i] = s.status == http.StatusOK && !s.degraded && (s.docs == len(w.docs) || s.docs == len(w.docs)-1)
		if !good[i] {
			bad++
		}
	}
	res.attempted += len(samples)
	if bad > 0 {
		res.fail(bad, "%d of %d fan-out searches failed or searched the wrong number of documents", bad, len(samples))
	}

	entries := make([]int32, w.probes)
	for i := range entries {
		entries[i] = w.at(i)
	}
	initial, err := newReference(w.docs, w.profiles)
	if err != nil {
		return nil, err
	}
	want, err := initial.expectAll(w, entries)
	if err != nil {
		return nil, err
	}
	res.oracle = poolDigest(entries, want)
	res.countWrong("warm-up searches differ from the reference fan-out over the initial documents", warm, want)

	finalDocs := make([]document, len(w.docs))
	for d, v := range final {
		finalDocs[d] = w.versions[v][d]
	}
	rebuilt, err := newReference(finalDocs, w.profiles)
	if err != nil {
		return nil, err
	}
	res.ref, res.docs = rebuilt, finalDocs
	want, err = rebuilt.expectAll(w, entries)
	if err != nil {
		return nil, err
	}
	res.countWrong("searches after the last mutation differ from a corpus rebuilt from the final documents", probes, want)
	return good, nil
}

// countWrong counts samples against their expected digests.
func (r *result) countWrong(what string, samples []sample, want map[int32]digest) {
	bad := 0
	for _, s := range samples {
		if s.status != http.StatusOK || s.degraded || s.answers != want[s.pool] {
			bad++
		}
	}
	r.attempted += len(samples)
	if bad > 0 {
		r.fail(bad, "%d of %d %s", bad, len(samples), what)
	}
}

func countFailed(muts []mutationSample) int {
	n := 0
	for _, m := range muts {
		if !m.ok {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
