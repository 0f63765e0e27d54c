package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/algebra"
	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// daemonTimeout is pimentod's default -timeout.
const daemonTimeout = 30 * time.Second

// parsedDoc is a document parsed once and shared by every in-process
// server and corpus the replay builds.
type parsedDoc struct {
	name string
	doc  *xmldoc.Document
}

func parseDocs(docs []document) ([]parsedDoc, error) {
	out := make([]parsedDoc, len(docs))
	for i, d := range docs {
		doc, err := xmldoc.ParseString(d.body)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", d.name, err)
		}
		out[i] = parsedDoc{d.name, doc}
	}
	return out, nil
}

// newServer builds the in-process twin of a default-flag pimentod.
func newServer(docs []parsedDoc, profiles []document) (*server.Server, error) {
	srv := server.New(server.Config{Pipeline: daemonPipeline, DefaultTimeout: daemonTimeout})
	for _, d := range docs {
		srv.Add(d.name, d.doc)
	}
	for _, p := range profiles {
		if _, _, err := srv.Profiles().Put(context.Background(), p.name, p.body); err != nil {
			return nil, fmt.Errorf("register profile %s: %w", p.name, err)
		}
	}
	return srv, nil
}

// stack is the serving layers below the HTTP handler, assembled from
// their public constructors the way server.New assembles them. The
// handler's own stages are private to it, so the replay re-enacts them
// over this stack: the same calls in the same order, each inside a
// span.
type stack struct {
	corpus   *corpus.Corpus
	cache    *server.ResultCache
	analysis *engine.AnalysisCache
	profiles *registry.Registry
	pool     *sched.Pool
}

func newStack(docs []parsedDoc, profiles []document) (*stack, error) {
	st := &stack{
		corpus:   corpus.New(daemonPipeline),
		cache:    server.NewResultCache(512),
		analysis: engine.NewAnalysisCache(256),
		pool:     sched.New(sched.Config{}),
	}
	st.corpus.SetBudget(st.pool.Budget())
	st.profiles = registry.New(func(ctx context.Context, p *profile.Profile) ([]analysis.Diagnostic, error) {
		pv, err := st.analysis.ProfileVerdict(ctx, p)
		if err != nil {
			return nil, err
		}
		return pv.Diags, nil
	})
	for _, d := range docs {
		st.corpus.Put(d.name, d.doc)
	}
	for _, p := range profiles {
		if _, _, err := st.profiles.Put(context.Background(), p.name, p.body); err != nil {
			return nil, fmt.Errorf("register profile %s: %w", p.name, err)
		}
	}
	return st, nil
}

func (st *stack) engineFor(e *corpus.Entry) *engine.Engine {
	eng := engine.FromParts(e.Document(), e.Index())
	eng.SetFingerprint(e.Fingerprint())
	eng.UseAnalysisCache(st.analysis)
	return eng
}

// serve re-enacts handleSearch for one request body, a span around
// each stage, and reports whether the result cache answered it.
func (st *stack) serve(rec *recorder, r int, body []byte) (hit bool, err error) {
	root := rec.start("server.staged", r, 0)
	defer rec.end(root)

	id := rec.start("server.decode", r, root)
	var sreq server.SearchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&sreq)
	rec.end(id)
	if err != nil {
		return false, err
	}
	snap := st.corpus.Snapshot()

	req := engine.Request{K: sreq.K, Timing: true, Budget: st.pool.Budget()}
	id = rec.start("tpq.parse", r, root)
	req.Query, err = tpq.Parse(sreq.Query)
	rec.end(id)
	if err != nil {
		return false, err
	}
	switch {
	case sreq.Profile != "":
		id = rec.start("profile.parse", r, root)
		req.Profile, err = profile.ParseProfile(sreq.Profile)
		rec.end(id)
		if err != nil {
			return false, err
		}
	case sreq.ProfileName != "":
		id = rec.start("registry.get", r, root)
		stored, ok := st.profiles.Get(sreq.ProfileName)
		rec.end(id)
		if !ok {
			return false, fmt.Errorf("unknown profile %q", sreq.ProfileName)
		}
		req.Profile = stored.Profile()
	}

	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	defer cancel()
	fanout := sreq.Doc == "" || sreq.Doc == "*"

	fill := func(parent int) (any, error) {
		id := rec.start("sched.acquire", r, parent)
		release, err := st.pool.Acquire(ctx)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		defer release()
		var out server.SearchBody
		if fanout {
			id = rec.start("corpus.fanout", r, parent)
			resp, err := snap.SearchContext(ctx, req.Query, req.Profile, req.K, req.Strategy)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.start("server.encode", r, parent)
			out = server.SearchBody{
				Results: make([]server.SearchResult, 0, len(resp.Results)), K: req.K,
				Strategy: req.Strategy.String(), AppliedSRs: resp.AppliedSRs, Parallelism: 1,
				DocsSearched: resp.DocsSearched, ExecUS: resp.Elapsed.Microseconds(),
			}
			for _, x := range resp.Results {
				out.Results = append(out.Results, server.SearchResult{
					Doc: x.DocName, Node: uint32(x.Node), Path: x.Path, S: x.S, K: x.K, Snippet: x.Snippet})
			}
		} else {
			entry, ok := snap.Entry(sreq.Doc)
			if !ok {
				return nil, fmt.Errorf("unknown document %q", sreq.Doc)
			}
			eng := st.engineFor(entry)
			id = rec.start("engine.search", r, parent)
			resp, err := eng.SearchContext(ctx, req)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.start("server.encode", r, parent)
			out = server.SearchBody{
				Results: make([]server.SearchResult, 0, len(resp.Results)), K: req.K,
				Strategy: req.Strategy.String(), AppliedSRs: resp.AppliedSRs, PlanShape: resp.PlanShape,
				Workers: resp.Workers, Parallelism: resp.Parallelism, TotalPruned: resp.TotalPruned,
				DocsSearched: 1, ExecUS: resp.Elapsed.Microseconds(), Trace: resp.Trace,
			}
			for _, x := range resp.Results {
				out.Results = append(out.Results, server.SearchResult{
					Doc: sreq.Doc, Node: uint32(x.Node), Path: x.Path, S: x.S, K: x.K, Snippet: x.Snippet})
			}
		}
		b, err := json.Marshal(&out)
		rec.end(id)
		return b, err
	}

	if sreq.NoCache {
		_, err = fill(root)
		return false, err
	}
	id = rec.start("engine.cachekey", r, root)
	var (
		key  string
		tags []string
	)
	if fanout {
		key, tags = req.CacheKey(snap.Fingerprint(), 1), []string{server.TagAll}
	} else {
		entry, ok := snap.Entry(sreq.Doc)
		if !ok {
			return false, fmt.Errorf("unknown document %q", sreq.Doc)
		}
		eng := st.engineFor(entry)
		key, tags = req.CacheKey(eng.Fingerprint(), eng.ResolvedParallelism(&req)), []string{sreq.Doc}
	}
	rec.end(id)
	id = rec.start("server.cache.miss_fill", r, root)
	_, outcome, err := st.cache.DoTagged(ctx, key, tags, func() (any, error) { return fill(id) })
	if outcome == server.Hit {
		rec.rename(id, "server.cache.hit")
	}
	rec.end(id)
	return outcome == server.Hit, err
}

// opBuckets maps an operator kind (algebra.OpStats.Kind) to the layer
// metric its self time is reported under.
var opBuckets = map[string]string{
	"twigjoin": "twig.join",
	"scan":     "algebra.scan", "listscan": "algebra.scan", "twigscan": "algebra.scan",
	"required": "algebra.required", "unitfilter": "algebra.required",
	"ftjoin": "algebra.ftjoin", "ftouterjoin": "algebra.ftjoin", "bonus": "algebra.ftjoin",
	"vor": "algebra.vor", "kor": "algebra.kor",
	"topkPrune": "algebra.topkprune", "sort": "algebra.sort",
}

// opBucketOrder is the order the buckets appear in a plan, bottom up.
var opBucketOrder = []string{
	"twig.join", "algebra.scan", "algebra.required", "algebra.ftjoin",
	"algebra.vor", "algebra.kor", "algebra.topkprune", "algebra.sort",
}

// opParts folds a plan's bottom-up operator stats into per-bucket self
// time. OpStats.WallNS includes everything upstream, so an operator's
// self time is the difference to the entry before it.
func opParts(stats []algebra.OpStats) ([]part, error) {
	self := map[string]int64{}
	var below int64
	for _, s := range stats {
		bucket, ok := opBuckets[s.Kind()]
		if !ok {
			return nil, fmt.Errorf("operator kind %q has no layer metric", s.Kind())
		}
		if d := s.WallNS - below; d > 0 {
			self[bucket] += d
		}
		below = s.WallNS
	}
	parts := make([]part, 0, len(opBucketOrder))
	for _, b := range opBucketOrder {
		parts = append(parts, part{b, self[b]})
	}
	return parts, nil
}

// engineStages re-enacts what happens inside one fresh execution —
// Engine.SearchContext for a single document, the per-document plans
// of Snapshot.SearchContext for a fan-out — with a span around each
// stage and plan.execute split by operator self time.
func (st *stack) engineStages(rec *recorder, r int, ref *reference, sr *searchRequest) error {
	q, prof, err := ref.compile(sr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	defer cancel()
	snap := st.corpus.Snapshot()
	root := rec.start("engine.staged", r, 0)
	defer rec.end(root)

	runPlan := func(e *corpus.Entry, opts plan.Options) error {
		id := rec.start("plan.build", r, root)
		p, err := plan.BuildWith(e.Index(), q, prof, sr.K, opts)
		rec.end(id)
		if err != nil {
			return err
		}
		defer p.Release()
		id = rec.start("plan.execute", r, root)
		_, err = p.ExecuteContext(ctx)
		rec.end(id)
		if err != nil {
			return err
		}
		if rec != nil {
			parts, err := opParts(p.Stats())
			if err != nil {
				return err
			}
			rec.split(id, parts)
		}
		return nil
	}

	if sr.Doc == "*" {
		if prof != nil {
			if q, _, err = analysis.EncodeFlock(prof.SRs, q); err != nil {
				return err
			}
		}
		for _, name := range snap.Names() {
			e, _ := snap.Entry(name)
			// Timing is on here and off in the real fan-out: it is what
			// makes the operator breakdown available at all.
			if err := runPlan(e, plan.Options{Parallelism: 1, Timing: true}); err != nil {
				return err
			}
		}
		return nil
	}
	e, ok := snap.Entry(sr.Doc)
	if !ok {
		return fmt.Errorf("unknown document %q", sr.Doc)
	}
	if prof != nil {
		id := rec.start("engine.analysis_warm", r, root)
		pv, err := st.analysis.ProfileVerdict(ctx, prof)
		if err == nil && pv.AmbiguityErr != nil {
			err = pv.AmbiguityErr
		}
		var qv *engine.QueryVerdict
		if err == nil {
			qv, err = st.analysis.QueryVerdict(ctx, prof, q)
		}
		rec.end(id)
		if err != nil {
			return err
		}
		if qv.ConflictErr != nil {
			return qv.ConflictErr
		}
		q = qv.Encoded
	}
	return runPlan(e, plan.Options{Budget: st.pool.Budget(), Timing: true})
}

// postSearch sends one /search body through h without a network.
func postSearch(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rw := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/search", bytes.NewReader(body))
	h.ServeHTTP(rw, req)
	return rw
}

// tracedReplay runs the per-layer half of a traced run: the staged
// replay, the allocation counts and the isolated calls. It adds their
// metrics to res (which already holds the live counts of a window) and
// writes the spans to bench/out/trace-<workload>.json.
func tracedReplay(res *result, w *workload, seed int64, replay int, outDir string) error {
	docs, err := parseDocs(res.docs)
	if err != nil {
		return err
	}
	// The requests replayed: the stream right after the warm-up prefix.
	// Every level has its own server or stack and first plays the prefix
	// unrecorded, so its caches are in the state the measured window
	// would find them in — and every level sees the same hits and misses.
	entries := make([]int32, replay)
	for i := range entries {
		entries[i] = w.at(w.warmup + i)
	}
	want, err := res.ref.expectAll(w, entries)
	if err != nil {
		return err
	}

	// Level 0: the whole round trip, one client on a loopback socket.
	srv0, err := newServer(docs, w.profiles)
	if err != nil {
		return err
	}
	defer srv0.Close()
	ts := httptest.NewServer(srv0.Handler())
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	// Level 1: the handler alone.
	srv1, err := newServer(docs, w.profiles)
	if err != nil {
		return err
	}
	defer srv1.Close()
	h := srv1.Handler()
	// Levels 2 and 3: the handler's stages re-enacted over a stack, then
	// the engine's stages for the requests its cache did not answer —
	// on one stack with the recorder, on another without.
	stOn, err := newStack(docs, w.profiles)
	if err != nil {
		return err
	}
	stOff, err := newStack(docs, w.profiles)
	if err != nil {
		return err
	}
	staged := func(st *stack, rec *recorder, r int, i int32) error {
		hit, err := st.serve(rec, r, w.bodies[i])
		if err != nil || hit {
			return err
		}
		return st.engineStages(rec, r, res.ref, &w.pool[i])
	}
	for n := 0; n < w.warmup; n++ {
		i := w.at(n)
		c.search(w, i)
		postSearch(h, w.bodies[i])
		if err := staged(stOn, nil, 0, i); err != nil {
			return err
		}
		if err := staged(stOff, nil, 0, i); err != nil {
			return err
		}
	}

	// The levels take turns, a block of requests each: whatever drifts
	// during the replay (heap size, CPU clocks, a neighbour) then drifts
	// for all levels alike and cancels in their differences, while each
	// level still runs long enough on its own copy of the index for the
	// CPU caches to hold it — only a block's first request pays for the
	// switch, and medians do not see it.
	const block = 20
	rec := newRecorder()
	var on, off time.Duration
	bad := 0
	for lo := 0; lo < len(entries); lo += block {
		hi := min(lo+block, len(entries))
		for n := lo; n < hi; n++ {
			s := c.search(w, entries[n])
			rec.add("server.http_roundtrip", n+1, s.rtt)
			if s.status != http.StatusOK || s.answers != want[entries[n]] {
				bad++
			}
		}
		for n := lo; n < hi; n++ {
			id := rec.start("server.handler", n+1, 0)
			rw := postSearch(h, w.bodies[entries[n]])
			rec.end(id)
			if rw.Code != http.StatusOK {
				return fmt.Errorf("replayed handler call answered %d: %s", rw.Code, rw.Body)
			}
		}
		t0 := time.Now()
		for n := lo; n < hi; n++ {
			if err := staged(stOn, rec, n+1, entries[n]); err != nil {
				return fmt.Errorf("staged replay of request %d: %w", entries[n], err)
			}
		}
		t1 := time.Now()
		for n := lo; n < hi; n++ {
			if err := staged(stOff, nil, 0, entries[n]); err != nil {
				return fmt.Errorf("staged replay of request %d: %w", entries[n], err)
			}
		}
		on, off = on+t1.Sub(t0), off+time.Since(t1)
	}
	res.attempted += len(entries)
	if bad > 0 {
		res.fail(bad, "%d of %d replayed requests failed or differ from the reference path", bad, len(entries))
	}
	// Allocations are counted on the stream's next stretch: the same
	// requests again would every one be a cache hit.
	next := make([]int32, 50)
	for i := range next {
		next[i] = w.at(w.warmup + len(entries) + i)
	}
	handlerAllocs, handlerKB := allocsPer(next, func(i int32) { postSearch(h, w.bodies[i]) })

	m := res.metrics
	spans := rec.spans
	self := selfTimes(spans)
	for _, name := range []string{
		"server.http_roundtrip", "server.handler",
		"server.decode", "tpq.parse", "profile.parse", "registry.get", "engine.cachekey",
		"server.cache.hit", "server.cache.miss_fill", "sched.acquire", "engine.search",
		"corpus.fanout", "server.encode",
		"engine.analysis_warm", "plan.build", "plan.execute",
		"twig.join", "algebra.scan", "algebra.required", "algebra.ftjoin",
		"algebra.vor", "algebra.kor", "algebra.topkprune", "algebra.sort",
	} {
		m[name+"_us"] = medianOf(perRequest(spans, name))
	}
	// Self times across levels are differences of durations: each level
	// is its own execution of the request, so a child's interval does
	// not lie inside its parent's. What a staged root's children cover
	// is its duration minus its self time.
	roundtrip, handler := perRequest(spans, "server.http_roundtrip"), perRequest(spans, "server.handler")
	search := perRequest(spans, "engine.search")
	covered := func(root string) map[int]float64 {
		dur, slf := perRequest(spans, root), perRequestSelf(spans, self, root)
		for r := range dur {
			dur[r] -= slf[r]
		}
		return dur
	}
	stagedServer, stagedEngine := covered("server.staged"), covered("engine.staged")
	httpSelf, serverSelf, engineSelf, unattributed := map[int]float64{}, map[int]float64{}, map[int]float64{}, map[int]float64{}
	for r, rt := range roundtrip {
		httpSelf[r] = rt - handler[r]
		serverSelf[r] = handler[r] - stagedServer[r]
		left := httpSelf[r] + serverSelf[r]
		if s, ok := search[r]; ok {
			engineSelf[r] = s - stagedEngine[r]
			left += engineSelf[r]
		}
		unattributed[r] = left / rt
	}
	m["server.http_self_us"] = medianOf(httpSelf)
	m["server.self_us"] = medianOf(serverSelf)
	m["engine.self_us"] = medianOf(engineSelf)
	m["trace.unattributed_share"] = medianOf(unattributed)
	m["trace.overhead_share"] = ratio((on - off).Seconds(), off.Seconds())
	m["server.handler_allocs"], m["server.handler_alloc_kb"] = handlerAllocs, handlerKB
	res.counts["server.http_roundtrip_us"] = len(roundtrip)
	res.counts["server.cache.hit_us"] = len(perRequest(spans, "server.cache.hit"))
	res.counts["engine.search_us"] = len(search)

	if err := isolatedCalls(res, w, docs, entries, seed); err != nil {
		return err
	}
	return writeTrace(outDir, w.name, seed, spans)
}

// writeTrace writes the spans kept in memory during the replay.
func writeTrace(dir, name string, seed int64, spans []span) error {
	path := filepath.Join(dir, "trace-"+name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Envelope envelope `json:"envelope"`
		Workload string   `json:"workload"`
		Note     string   `json:"note"`
		Spans    []span   `json:"spans"`
	}{newEnvelope(seed), name,
		"levels (server.http_roundtrip, server.handler, server.staged, engine.staged) are separate executions of the same request; children of a plan.execute span are its duration split by operator self time",
		spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
