package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/tpq"
	fixtures "repro/internal/workload"
)

// testScale keeps every generated document at the paper's smallest
// size so the whole suite runs in a few seconds.
var testScale = scale{big: 101 * 1024, small: 101 * 1024, replay: 40}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestQuietQuartile(t *testing.T) {
	// Eight one-second sub-windows of steady 10 ms samples; a neighbour
	// takes the machine for five of them, which run at 100 ms. The
	// whole-run p95 and the median over sub-windows see the neighbour,
	// the quietest-quarter figure does not.
	var endNS []int64
	var lat []float64
	for w := 0; w < 8; w++ {
		for i := 0; i < 100; i++ {
			endNS = append(endNS, int64(w)*1e9+int64(i)*1e7)
			v := 10.0
			if w >= 2 && w <= 6 {
				v = 100
			}
			lat = append(lat, v)
		}
	}
	p95 := windowed(endNS, lat, 1e9, 8, func(v []float64) float64 { return percentile(sortedCopy(v), 95) })
	if want := []float64{10, 10, 100, 100, 100, 100, 100, 10}; !reflect.DeepEqual(p95, want) {
		t.Fatalf("per-sub-window p95 = %v, want %v", p95, want)
	}
	if got := quiet(p95, "lower"); got != 10 {
		t.Errorf("quiet p95 = %v, want 10", got)
	}
	if got := median(p95); got != 100 {
		t.Errorf("median over sub-windows = %v, want 100", got)
	}
	if got := percentile(sortedCopy(lat), 95); got != 100 {
		t.Errorf("whole-run p95 = %v, want 100", got)
	}
	// For a rate the quiet edge is the upper quartile, and a sub-window
	// in which nothing completed is no evidence of anything.
	if got := quiet([]float64{50, 100, 0, 100, 60, 55, 100, 0}, "higher"); got != 100 {
		t.Errorf("quiet rate = %v, want 100", got)
	}
	// A change to the code moves every sub-window, the quiet ones too.
	for i := range p95 {
		p95[i] *= 1.5
	}
	if got := quiet(p95, "lower"); got != 15 {
		t.Errorf("quiet p95 after a 1.5x regression = %v, want 15", got)
	}
	// A sample that completes after the last sub-window is in none.
	out := windowed([]int64{9e9}, []float64{1}, 1e9, 8, func(v []float64) float64 { return float64(len(v)) })
	if !reflect.DeepEqual(out, make([]float64, 8)) {
		t.Errorf("late sample counted: %v", out)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if got := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestZipf(t *testing.T) {
	z := newZipf(2048, 1.0)
	draw := func(seed int64) []int {
		r := rand.New(rand.NewSource(seed))
		out := make([]int, 20000)
		for i := range out {
			out[i] = z.draw(r)
		}
		return out
	}
	a, b := draw(1), draw(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different ranks")
	}
	if reflect.DeepEqual(a, draw(2)) {
		t.Fatal("different seeds drew the same ranks")
	}
	// The 512 hottest of 2048 ranks carry H(512)/H(2048) = 0.83 of the
	// mass: the share of cached_mix an ideal 512-entry cache would hit.
	hot := 0
	for _, r := range a {
		if r < 0 || r >= 2048 {
			t.Fatalf("rank %d out of range", r)
		}
		if r < 512 {
			hot++
		}
	}
	if share := float64(hot) / float64(len(a)); math.Abs(share-0.83) > 0.02 {
		t.Errorf("hot share %.3f, want about 0.83", share)
	}
}

// streamBytes flattens everything the daemon would be sent.
func streamBytes(t *testing.T, w *workload) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range w.docs {
		buf.WriteString(d.name + d.body)
	}
	for _, p := range w.profiles {
		buf.WriteString(p.name + p.body)
	}
	for i := 0; i < w.warmup+4096; i++ {
		buf.Write(w.bodies[w.at(i)])
	}
	b, err := json.Marshal(struct {
		A []time.Duration
		M [][4]int64
	}{w.arrivals, flatten(w.mutations)})
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(b)
	return buf.Bytes()
}

func flatten(ms []mutation) [][4]int64 {
	out := make([][4]int64, len(ms))
	for i, m := range ms {
		del := int64(0)
		if m.deleteFirst {
			del = 1
		}
		out[i] = [4]int64{int64(m.due), int64(m.doc), int64(m.version), del}
	}
	return out
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		build := func(seed int64) []byte {
			w, err := buildWorkload(name, seed, testScale, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return streamBytes(t, w)
		}
		a := build(7)
		if !bytes.Equal(a, build(7)) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if bytes.Equal(a, build(8)) {
			t.Errorf("%s: different seeds generated the same inputs", name)
		}
	}
	if _, err := buildWorkload("nope", 1, testScale, time.Second); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

func TestWorkloadShapes(t *testing.T) {
	for name, want := range map[string]struct{ docs, profiles, pool int }{
		"ft_single":   {1, 0, 4},
		"struct_twig": {1, 0, 24},
		"cached_mix":  {8, 16, 2048},
		"live_corpus": {8, 0, 4096},
	} {
		w, err := buildWorkload(name, 1, testScale, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.docs) != want.docs || len(w.profiles) != want.profiles || len(w.pool) != want.pool {
			t.Errorf("%s: %d docs, %d profiles, %d distinct requests; want %+v",
				name, len(w.docs), len(w.profiles), len(w.pool), want)
		}
		distinct := map[string]bool{}
		for _, b := range w.bodies {
			distinct[string(b)] = true
		}
		if len(distinct) != len(w.pool) {
			t.Errorf("%s: only %d of %d pool entries are distinct", name, len(distinct), len(w.pool))
		}
	}
	w, _ := buildWorkload("live_corpus", 1, testScale, 2*time.Second)
	if len(w.mutations) != 8 || !w.mutations[7].deleteFirst || w.mutations[0].deleteFirst {
		t.Errorf("live_corpus writer: %d slots in 2s, want 8 with the eighth a delete-then-put", len(w.mutations))
	}
}

func TestFig5ProfileSrc(t *testing.T) {
	for n := 0; n <= 4; n++ {
		p, err := profile.ParseProfile(fig5ProfileSrc(n))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := engine.CanonicalProfile(p), engine.CanonicalProfile(fixtures.Fig5Profile(n)); got != want {
			t.Errorf("n=%d: source parses to\n%s\nthe fixture is\n%s", n, got, want)
		}
	}
	if got, want := tpq.MustParse(fig5QuerySrc).String(), fixtures.Fig5Query().String(); got != want {
		t.Errorf("fig5QuerySrc parses to %s, the fixture is %s", got, want)
	}
}

func TestPersonProfilesAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 16; i++ {
		p, err := profile.ParseProfile(personProfileSrc(i))
		if err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		fp := engine.ProfileFingerprint(p)
		if j, dup := seen[fp]; dup {
			t.Errorf("profiles %d and %d are the same profile", j, i)
		}
		seen[fp] = i
	}
}

func TestCanonicalisation(t *testing.T) {
	as := []answer{
		{Doc: "d1", Node: 7, Path: "/site/people/person[3]", S: 0.1 + 0.2, K: 2, Snippet: "a b"},
		{Doc: "d1", Node: 9, Path: "/site/people/person[4]", S: 1e-9, K: 0, Snippet: "é…"},
	}
	// The wire form, decoded as the generator decodes it, digests the
	// same as the in-process form — including a float that has no short
	// decimal spelling.
	wire, err := json.Marshal(map[string]any{"results": as, "k": 10, "exec_us": 12345})
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := json.Unmarshal(wire, &resp); err != nil {
		t.Fatal(err)
	}
	if digestOf(resp.Results) != digestOf(as) {
		t.Errorf("decoded answers digest differently:\n%q\n%q", canonical(resp.Results), canonical(as))
	}
	// Rank order, every field and list length are all significant.
	if digestOf([]answer{as[1], as[0]}) == digestOf(as) {
		t.Error("rank order does not reach the digest")
	}
	for i, change := range []func(a *answer){
		func(a *answer) { a.Doc = "d2" }, func(a *answer) { a.Node++ }, func(a *answer) { a.Path += "x" },
		func(a *answer) { a.S = math.Nextafter(a.S, 1) }, func(a *answer) { a.K++ }, func(a *answer) { a.Snippet = "" },
	} {
		mod := append([]answer(nil), as...)
		change(&mod[0])
		if digestOf(mod) == digestOf(as) {
			t.Errorf("change %d does not reach the digest", i)
		}
	}
	if digestOf(as[:1]) == digestOf(as) || digestOf(nil) == digestOf(as) {
		t.Error("list length does not reach the digest")
	}
}

const tornExposition = `# HELP pimento_http_request_seconds HTTP request latency in seconds, by endpoint.
# TYPE pimento_http_request_seconds histogram
pimento_http_request_seconds_bucket{endpoint="search",le="0.005"} %d
pimento_http_request_seconds_bucket{endpoint="search",le="+Inf"} %d
pimento_http_request_seconds_sum{endpoint="search"} %g
pimento_http_request_seconds_count{endpoint="search"} %d
# TYPE pimento_cache_evictions_total counter
pimento_cache_evictions_total %d
# TYPE pimento_label_test counter
pimento_label_test{a="x,y",b="q\"uote"} 3
`

func TestExpositionDelta(t *testing.T) {
	parse := func(bucket, inf int, sum float64, count, evictions int) *scrape {
		series, err := parseExposition(fmt.Sprintf(tornExposition, bucket, inf, sum, count, evictions))
		if err != nil {
			t.Fatal(err)
		}
		return &scrape{series: series, statsz: map[string]any{"shed": 1.0, "mutations": map[string]any{"puts": 2.0}}}
	}
	// The second reading is torn: _count (31) ran ahead of the +Inf
	// bucket (30). The count is read from the bucket.
	d := &delta{before: parse(5, 10, 0.5, 10, 1), after: parse(20, 30, 2.5, 31, 4)}
	d.after.statsz = map[string]any{"shed": 4.0, "mutations": map[string]any{"puts": 7.0}}
	if got := d.histCount("pimento_http_request_seconds", "endpoint", "search"); got != 20 {
		t.Errorf("histCount = %v, want 20 (from the +Inf bucket, not _count)", got)
	}
	if got := d.histSum("pimento_http_request_seconds", "endpoint", "search"); got != 2 {
		t.Errorf("histSum = %v, want 2", got)
	}
	if got := d.counter("pimento_cache_evictions_total"); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	if got := d.counter("pimento_label_test", "b", `q"uote`, "a", "x,y"); got != 0 {
		t.Errorf("labelled counter = %v, want 0", got)
	}
	if got := d.statsz("shed") + d.statsz("mutations", "puts"); got != 8 {
		t.Errorf("statsz deltas = %v, want 3+5", got)
	}
	if err := d.err(); err != nil {
		t.Fatalf("unexpected %v", err)
	}
	// A series or field that is gone is an error, never a silent zero.
	if got := d.counter("pimento_gone_total"); got != 0 || d.err() == nil {
		t.Errorf("missing series read %v with error %v", got, d.err())
	}
	d2 := &delta{before: d.before, after: d.after}
	d2.statsz("mutations", "deletes")
	if err := d2.err(); err == nil || !strings.Contains(err.Error(), "mutations.deletes") {
		t.Errorf("missing statsz field: %v", err)
	}
	if _, err := parseExposition("metric_without_value\n"); err == nil {
		t.Error("a malformed line parsed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},    // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},   // reaches outside: clipped
		{ID: 5, Parent: 3, Name: "leaf", StartNS: 25, EndNS: 45}, // a grandchild does not count twice
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	rec := newRecorder()
	id := rec.start("plan.execute", 1, 0)
	rec.end(id)
	rec.spans[0].StartNS, rec.spans[0].EndNS = 1000, 2000
	rec.split(id, []part{{"twig.join", 300}, {"algebra.scan", 0}, {"algebra.kor", 900}})
	got := perRequest(rec.spans, "twig.join")[1] + perRequest(rec.spans, "algebra.kor")[1]
	if len(rec.spans) != 3 || got != 1.0 || perRequest(rec.spans, "twig.join")[1] != 0.25 {
		t.Errorf("split: %+v", rec.spans)
	}
	if s := selfTimes(rec.spans)[id]; s != 0 {
		t.Errorf("a fully split span has self time %d", s)
	}

	var off *recorder
	if off.start("x", 1, 0) != 0 {
		t.Error("a nil recorder handed out a span")
	}
	off.end(0)
	off.rename(0, "y")
	off.split(0, nil)
}

func TestOpParts(t *testing.T) {
	// Inclusive wall times, bottom up, as Plan.Stats reports them.
	parts, err := opParts(statsOf("twigjoin(person)", 100, "twigscan(person)", 130, "bonus", 200, "vor(pi5)", 260,
		"kor(male)", 300, "topkPrune(k=10)", 330, "kor(College)", 400, "sort(S)", 410))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, p := range parts {
		got[p.name] = p.ns
	}
	want := map[string]int64{"twig.join": 100, "algebra.scan": 30, "algebra.required": 0, "algebra.ftjoin": 70,
		"algebra.vor": 60, "algebra.kor": 110, "algebra.topkprune": 30, "algebra.sort": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("opParts = %v, want %v", got, want)
	}
	if _, err := opParts(statsOf("teleport(x)", 5)); err == nil {
		t.Error("an operator kind with no layer metric was folded silently")
	}
}

// statsOf builds operator stats from (name, inclusive wall ns) pairs.
func statsOf(pairs ...any) []algebra.OpStats {
	var out []algebra.OpStats
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, algebra.OpStats{Name: pairs[i].(string), WallNS: int64(pairs[i+1].(int))})
	}
	return out
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark defaults to %d", f.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, the benchmark runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the benchmark's table:\n%+v\n%+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the benchmark's table")
	}
	seen := map[string]bool{}
	for _, sp := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[sp.Name] {
			t.Errorf("metric %s declared twice", sp.Name)
		}
		seen[sp.Name] = true
		if sp.Bound > 0.25 {
			t.Errorf("metric %s: bound %v exceeds 0.25", sp.Name, sp.Bound)
		}
	}
}

// inProcess launches server.New behind a loopback listener in this
// process, in place of a spawned daemon.
func inProcess() (*target, error) {
	srv := server.New(server.Config{Pipeline: daemonPipeline, DefaultTimeout: daemonTimeout})
	ts := httptest.NewServer(srv.Handler())
	return &target{base: ts.URL, pid: os.Getpid(), stop: func() error {
		ts.Close()
		srv.Close()
		return nil
	}}, nil
}

// TestSmoke runs all four workloads for a quarter of a second each
// against an in-process server on 101 KB documents — the traced run,
// which measures both metric sets — and checks that every answer is
// right and that every metric BENCHMARK.json names comes out.
func TestSmoke(t *testing.T) {
	b := &bench{launch: inProcess, sc: testScale, window: 250 * time.Millisecond, outDir: t.TempDir()}
	for _, name := range workloadNames {
		res, err := b.one(name, 3, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d failed: %v", name, res.failed, res.attempted, res.problems)
		}
		if _, err := os.Stat(b.outDir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
		for _, specs := range [][]metricSpec{endToEnd, perLayer} {
			var out bytes.Buffer
			if err := printResult(&out, res, specs); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			if len(last.Metrics) != len(specs) || last.Attempted < 1 || !last.Correct {
				t.Errorf("%s: %d metrics of %d, attempted %d, correct %v",
					name, len(last.Metrics), len(specs), last.Attempted, last.Correct)
			}
			for _, sp := range specs {
				if strings.Count(out.String(), "  "+sp.Name+" ") != 1 {
					t.Errorf("%s: %s is not printed exactly once", name, sp.Name)
				}
				if sp.Bound > 0 && last.Metrics[sp.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, sp.Name, last.Metrics[sp.Name].Value)
				}
			}
		}
	}
}
