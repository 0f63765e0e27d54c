package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/tpq"
	"repro/internal/twig"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
)

// isolatedQueries is how many distinct requests of the replayed stream
// the per-query isolated calls run on.
const isolatedQueries = 20

// medianTime takes reps measurements and returns their median.
func medianTime(reps int, measure func() time.Duration) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = measure()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2]
}

// timed makes a measurement of the whole of f.
func timed(f func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mbPerS is a throughput over size bytes.
func mbPerS(size int, d time.Duration) float64 {
	return ratio(float64(size)/(1<<20), d.Seconds())
}

// allocsPer calls f once per entry on this goroutine and returns the
// heap allocations and kilobytes per call, from runtime.MemStats
// deltas.
func allocsPer(entries []int32, f func(i int32)) (allocs, kb float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for _, i := range entries {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(entries))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
}

// compiled is one distinct request ready to hand to a layer.
type compiled struct {
	sr      *searchRequest
	q       *tpq.Query // as sent
	encoded *tpq.Query // with the profile's scoping rules folded in, as plans see it
	prof    *profile.Profile
	entry   *corpus.Entry // the document it addresses (the first one for a fan-out)
}

// isolatedCalls times single calls into one layer's public functions,
// on the workload's own documents and queries, so that a change to one
// layer has a number that moves with no daemon in the way. A metric
// that does not apply to the workload (no profile, no fan-out) reads 0.
func isolatedCalls(res *result, w *workload, docs []parsedDoc, entries []int32, seed int64) error {
	m := res.metrics
	ctx := context.Background()

	// --- the write path, layer by layer, on the first document ---
	body := res.docs[0].body
	m["xmark.generate_mb_s"] = mbPerS(len(body), medianTime(3, timed(func() {
		xmark.GenerateSized(xmark.Config{Seed: subSeed(seed, "isolated")}, len(body))
	})))
	var (
		doc  *xmldoc.Document
		perr error
	)
	m["xmldoc.parse_mb_s"] = mbPerS(len(body), medianTime(3, timed(func() { doc, perr = xmldoc.ParseString(body) })))
	if perr != nil {
		return perr
	}
	text := doc.TextContent(doc.Root())
	m["text.tokenize_mb_s"] = mbPerS(len(text), medianTime(3, timed(func() { daemonPipeline.Tokenize(text) })))
	var ix *index.Index
	m["index.build_mb_s"] = mbPerS(len(body), medianTime(3, timed(func() { ix = index.Build(doc, daemonPipeline) })))
	m["index.fingerprint_ms"] = ms(medianTime(3, timed(func() { index.ContentFingerprint(ix) })))

	st, err := newStack(docs, w.profiles)
	if err != nil {
		return err
	}
	var prepared *corpus.Prepared
	m["corpus.prepare_ms"] = ms(medianTime(3, timed(func() { prepared = st.corpus.Prepare(doc) })))
	m["corpus.commit_us"] = us(medianTime(33, timed(func() { st.corpus.Commit(docs[0].name, prepared) })))

	// What one mutation costs the result cache: a full cache whose 512
	// entries all carry the mutated document's tag.
	m["server.cache.invalidate_us"] = us(medianTime(9, func() time.Duration {
		rc := server.NewResultCache(512)
		for i := 0; i < 512; i++ {
			// The fill cannot fail and the value is never read.
			_, _, _ = rc.DoTagged(ctx, fmt.Sprint(i), []string{"d"}, func() (any, error) { return i, nil })
		}
		return timed(func() { rc.Invalidate("d") })()
	}))

	h := server.New(server.Config{Pipeline: daemonPipeline}).Handler()
	m["metrics.scrape_us"] = us(medianTime(9, timed(func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
	})))

	// --- the read path, call by call, on the first distinct requests ---
	snap := st.corpus.Snapshot()
	var reqs []compiled
	seen := map[int32]bool{}
	for _, i := range entries {
		if seen[i] || len(reqs) == isolatedQueries {
			continue
		}
		seen[i] = true
		c := compiled{sr: &w.pool[i]}
		if c.q, c.prof, err = res.ref.compile(c.sr); err != nil {
			return err
		}
		c.encoded = c.q
		if c.prof != nil {
			if c.encoded, _, err = analysis.EncodeFlock(c.prof.SRs, c.q); err != nil {
				return err
			}
		}
		name := c.sr.Doc
		if w.fanout {
			name = docs[0].name
		}
		c.entry, _ = snap.Entry(name)
		reqs = append(reqs, c)
	}
	// perQuery is the median over the requests of one call each, after
	// one unmeasured call that fills the index's lazy phrase caches.
	perQuery := func(applies func(c *compiled) bool, setup func(c *compiled) (func() error, error)) (float64, error) {
		var ds []float64
		for i := range reqs {
			if !applies(&reqs[i]) {
				continue
			}
			call, err := setup(&reqs[i])
			if err != nil {
				return 0, err
			}
			if err := call(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			err = call()
			ds = append(ds, us(time.Since(t0)))
			if err != nil {
				return 0, err
			}
		}
		return median(ds), nil
	}
	always := func(*compiled) bool { return true }
	profiled := func(c *compiled) bool { return c.prof != nil }
	just := func(call func(c *compiled) error) func(c *compiled) (func() error, error) {
		return func(c *compiled) (func() error, error) { return func() error { return call(c) }, nil }
	}
	execute := func(opts plan.Options) func(c *compiled) (func() error, error) {
		return func(c *compiled) (func() error, error) {
			p, err := plan.BuildWith(c.entry.Index(), c.encoded, c.prof, c.sr.K, opts)
			if err != nil {
				return nil, err
			}
			return func() error {
				_, err := p.ExecuteContext(ctx)
				p.Release()
				return err
			}, nil
		}
	}
	calls := []struct {
		metric  string
		applies func(c *compiled) bool
		setup   func(c *compiled) (func() error, error)
	}{
		{"plan.execute_scan_us", always, execute(plan.Options{AccessPath: plan.AccessScan, Parallelism: 1})},
		{"plan.execute_twigjoin_us", always, execute(plan.Options{AccessPath: plan.AccessTwigJoin, Parallelism: 1})},
		{"plan.execute_par1_us", always, execute(plan.Options{Parallelism: 1})},
		{"plan.execute_par2_us", always, execute(plan.Options{Parallelism: 2})},
		{"twig.distinguished_us", always, func(c *compiled) (func() error, error) {
			ev := twig.NewEvaluator(c.entry.Index(), c.encoded)
			return func() error { _, _, err := ev.Distinguished(ctx); return err }, nil
		}},
		{"engine.analysis_cold_us", profiled, just(func(c *compiled) error {
			ac := engine.NewAnalysisCache(256)
			if _, err := ac.ProfileVerdict(ctx, c.prof); err != nil {
				return err
			}
			_, err := ac.QueryVerdict(ctx, c.prof, c.q)
			return err
		})},
		{"analysis.vet_us", profiled, just(func(c *compiled) error { analysis.Vet(c.prof, c.q); return nil })},
		{"analysis.encodeflock_us", profiled, just(func(c *compiled) error {
			_, _, err := analysis.EncodeFlock(c.prof.SRs, c.q)
			return err
		})},
		{"corpus.fanout_sharded_us", func(*compiled) bool { return w.fanout }, just(func(c *compiled) error {
			_, err := snap.SearchSharded(ctx, c.q, c.prof, c.sr.K, plan.Default, corpus.ShardOptions{Shards: 4})
			return err
		})},
	}
	for _, c := range calls {
		if m[c.metric], err = perQuery(c.applies, c.setup); err != nil {
			return fmt.Errorf("%s: %w", c.metric, err)
		}
	}

	// Allocations of one fresh single-document execution, as the
	// server issues it.
	m["engine.search_allocs"], m["engine.search_alloc_kb"] = 0, 0
	if !w.fanout {
		var serr error
		search := func(c *compiled) {
			if _, err := st.engineFor(c.entry).SearchContext(ctx, engine.Request{
				Query: c.q, Profile: c.prof, K: c.sr.K, Timing: true, Budget: st.pool.Budget(),
			}); err != nil {
				serr = err
			}
		}
		idx := make([]int32, len(reqs))
		for i := range idx {
			idx[i] = int32(i)
			search(&reqs[i]) // unmeasured: warms the analysis cache
		}
		m["engine.search_allocs"], m["engine.search_alloc_kb"] = allocsPer(idx, func(i int32) { search(&reqs[i]) })
		if serr != nil {
			return serr
		}
	}
	return nil
}
