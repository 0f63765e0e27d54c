package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metricSpec declares one metric the benchmark prints. The tables
// below are the benchmark's schema; BENCHMARK.json repeats them for the
// acceptance driver and TestBenchmarkJSON keeps the two identical.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of pimentod would see, each gated by
// its bound. Failures are not a metric here: every run reports
// attempted and failed operations next to its metrics, and any failure
// makes the run incorrect.
var endToEnd = []metricSpec{
	{"search_qps", "1/s", "higher", 0.25},
	{"search_p50_ms", "ms", "lower", 0.25},
	{"search_p95_ms", "ms", "lower", 0.25},
	{"mutation_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, in the
// order the README's glossary explains them. A metric that does not
// apply to a workload (no fan-out, no profile, no writer) reads 0.
var perLayer = []metricSpec{
	// Traced replay: medians over the replayed requests.
	{Name: "server.http_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "server.http_self_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.decode_us", Unit: "us", Better: "lower"},
	{Name: "tpq.parse_us", Unit: "us", Better: "lower"},
	{Name: "profile.parse_us", Unit: "us", Better: "lower"},
	{Name: "registry.get_us", Unit: "us", Better: "lower"},
	{Name: "engine.cachekey_us", Unit: "us", Better: "lower"},
	{Name: "server.cache.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.cache.miss_fill_us", Unit: "us", Better: "lower"},
	{Name: "sched.acquire_us", Unit: "us", Better: "lower"},
	{Name: "engine.search_us", Unit: "us", Better: "lower"},
	{Name: "engine.self_us", Unit: "us", Better: "lower"},
	{Name: "corpus.fanout_us", Unit: "us", Better: "lower"},
	{Name: "server.encode_us", Unit: "us", Better: "lower"},
	{Name: "engine.analysis_warm_us", Unit: "us", Better: "lower"},
	{Name: "plan.build_us", Unit: "us", Better: "lower"},
	{Name: "plan.execute_us", Unit: "us", Better: "lower"},
	{Name: "twig.join_us", Unit: "us", Better: "lower"},
	{Name: "algebra.scan_us", Unit: "us", Better: "lower"},
	{Name: "algebra.required_us", Unit: "us", Better: "lower"},
	{Name: "algebra.ftjoin_us", Unit: "us", Better: "lower"},
	{Name: "algebra.vor_us", Unit: "us", Better: "lower"},
	{Name: "algebra.kor_us", Unit: "us", Better: "lower"},
	{Name: "algebra.topkprune_us", Unit: "us", Better: "lower"},
	{Name: "algebra.sort_us", Unit: "us", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "engine.search_allocs", Unit: "count", Better: "lower"},
	{Name: "engine.search_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "server.handler_allocs", Unit: "count", Better: "lower"},
	{Name: "server.handler_alloc_kb", Unit: "KB", Better: "lower"},
	// Isolated calls into one layer's public functions.
	{Name: "xmark.generate_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "xmldoc.parse_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "text.tokenize_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "index.build_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "index.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.commit_us", Unit: "us", Better: "lower"},
	{Name: "server.cache.invalidate_us", Unit: "us", Better: "lower"},
	{Name: "corpus.fanout_sharded_us", Unit: "us", Better: "lower"},
	{Name: "plan.execute_scan_us", Unit: "us", Better: "lower"},
	{Name: "plan.execute_twigjoin_us", Unit: "us", Better: "lower"},
	{Name: "plan.execute_par1_us", Unit: "us", Better: "lower"},
	{Name: "plan.execute_par2_us", Unit: "us", Better: "lower"},
	{Name: "twig.distinguished_us", Unit: "us", Better: "lower"},
	{Name: "engine.analysis_cold_us", Unit: "us", Better: "lower"},
	{Name: "analysis.vet_us", Unit: "us", Better: "lower"},
	{Name: "analysis.encodeflock_us", Unit: "us", Better: "lower"},
	{Name: "metrics.scrape_us", Unit: "us", Better: "lower"},
	// Live counts: /metrics and /statsz deltas over a measured window.
	{Name: "server.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.cache_invalidated", Unit: "count", Better: "lower"},
	{Name: "engine.analysis_hit_share", Unit: "share", Better: "higher"},
	{Name: "sched.queued_share", Unit: "share", Better: "lower"},
	{Name: "sched.wait_mean_us", Unit: "us", Better: "lower"},
	{Name: "sched.shed", Unit: "count", Better: "lower"},
	{Name: "engine.stage_analyze_ms_per_search", Unit: "ms", Better: "lower"},
	{Name: "engine.stage_build_ms_per_search", Unit: "ms", Better: "lower"},
	{Name: "engine.stage_execute_ms_per_search", Unit: "ms", Better: "lower"},
	{Name: "engine.stage_rank_ms_per_search", Unit: "ms", Better: "lower"},
	{Name: "algebra.pruned_per_search", Unit: "count", Better: "higher"},
	{Name: "algebra.answers_per_search", Unit: "count", Better: "lower"},
	{Name: "twig.joined_share", Unit: "share", Better: "higher"},
	{Name: "twig.guide_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "twig.stack_pushes_per_query", Unit: "count", Better: "lower"},
	{Name: "twig.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "corpus.mutations", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_p95_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.search_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.search_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.mutation_p90_ms", Unit: "ms", Better: "lower"},
}

// envelope describes the machine and build a run's numbers belong to.
type envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func newEnvelope(seed int64) envelope {
	e := envelope{
		Commit:     "unknown", // a checkout that is not a git repository has none
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		LoadAvg:    "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg = f[0]
		}
	}
	return e
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final line of standard output: the form the
// acceptance driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the named metrics of res: one readable row each,
// then the JSON line. A metric in specs that res lacks is a bug in the
// benchmark, reported as an error.
func printResult(out io.Writer, res *result, specs []metricSpec) error {
	line := resultLine{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	fmt.Fprintf(out, "workload %s: attempted %d, failed %d, reference digest %s\n",
		res.workload, res.attempted, res.failed, res.oracle)
	for _, p := range res.problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}
	for _, n := range res.noisy {
		fmt.Fprintf(out, "  noisy: %s\n", n)
	}
	for _, sp := range specs {
		v, ok := res.metrics[sp.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", res.workload, sp.Name)
		}
		line.Metrics[sp.Name] = metricValue{Value: v, Unit: sp.Unit}
		row := fmt.Sprintf("  %-36s %14.4f %-6s", sp.Name, v, sp.Unit)
		if n, ok := res.counts[sp.Name]; ok {
			row += fmt.Sprintf(" n=%d", n)
		}
		if sp.Bound > 0 {
			row += fmt.Sprintf(" (%s is better; gate %.0f%%)", sp.Better, 100*sp.Bound)
		}
		fmt.Fprintln(out, strings.TrimRight(row, " "))
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
