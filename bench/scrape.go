package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// scrape is one reading of the daemon's counters: every /metrics
// sample keyed by its series, plus the /statsz document. Readings are
// taken with no request in flight, before and after a measured window;
// the live-count metrics are differences of two readings.
type scrape struct {
	series map[string]float64
	statsz map[string]any
}

// seriesKey is the canonical spelling of a series: the metric name
// followed by its labels sorted by name.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseExposition reads Prometheus text exposition into series values.
// Unlike internal/metrics.ParseExposition it does not validate
// histograms: a histogram's _count may disagree with its +Inf bucket
// in a reading taken under load, and this reader must still parse it.
func parseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln+1, err)
		}
		name, labels := line[:sp], []string(nil)
		if open := strings.IndexByte(name, '{'); open >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels in %q", ln+1, line)
			}
			body := name[open+1 : len(name)-1]
			name = name[:open]
			for body != "" {
				eq := strings.IndexByte(body, '=')
				if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
					return nil, fmt.Errorf("metrics line %d: malformed label in %q", ln+1, line)
				}
				val, err := strconv.QuotedPrefix(body[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("metrics line %d: malformed label value in %q", ln+1, line)
				}
				unq, err := strconv.Unquote(val)
				if err != nil {
					return nil, fmt.Errorf("metrics line %d: %w", ln+1, err)
				}
				labels = append(labels, body[:eq], unq)
				body = strings.TrimPrefix(body[eq+1+len(val):], ",")
			}
		}
		out[seriesKey(name, labels...)] = v
	}
	return out, nil
}

// takeScrape reads /metrics and /statsz.
func takeScrape(c *client) (*scrape, error) {
	status, body, err := c.do("GET", "/metrics", nil)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	series, err := parseExposition(string(body))
	if err != nil {
		return nil, err
	}
	status, body, err = c.do("GET", "/statsz", nil)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("GET /statsz: status %d: %v", status, err)
	}
	var statsz map[string]any
	if err := json.Unmarshal(body, &statsz); err != nil {
		return nil, fmt.Errorf("GET /statsz: %w", err)
	}
	return &scrape{series: series, statsz: statsz}, nil
}

// delta is the change between two readings. A series or field that
// either reading lacks is an error, recorded once and reported by
// err(): a counter the daemon no longer exports must fail the run
// loudly, not read as zero.
type delta struct {
	before, after *scrape
	missing       []string
}

func (d *delta) miss(what string) float64 {
	d.missing = append(d.missing, what)
	return 0
}

// counter is the increase of one /metrics series.
func (d *delta) counter(name string, labels ...string) float64 {
	key := seriesKey(name, labels...)
	b, ok1 := d.before.series[key]
	a, ok2 := d.after.series[key]
	if !ok1 || !ok2 {
		return d.miss("/metrics " + key)
	}
	return a - b
}

// histCount is the number of observations a histogram gained, read
// from its +Inf bucket: buckets and _count are separate atomics in the
// daemon and _count can run ahead of the buckets in a reading that
// races an observation.
func (d *delta) histCount(name string, labels ...string) float64 {
	return d.counter(name+"_bucket", append(append([]string(nil), labels...), "le", "+Inf")...)
}

// histSum is the increase of a histogram's _sum.
func (d *delta) histSum(name string, labels ...string) float64 {
	return d.counter(name+"_sum", labels...)
}

// statsz is the increase of one numeric /statsz field, addressed by
// its path of object keys.
func (d *delta) statsz(path ...string) float64 {
	get := func(s *scrape) (float64, bool) {
		var cur any = s.statsz
		for _, k := range path {
			m, ok := cur.(map[string]any)
			if !ok {
				return 0, false
			}
			if cur, ok = m[k]; !ok {
				return 0, false
			}
		}
		f, ok := cur.(float64)
		return f, ok
	}
	b, ok1 := get(d.before)
	a, ok2 := get(d.after)
	if !ok1 || !ok2 {
		return d.miss("/statsz " + strings.Join(path, "."))
	}
	return a - b
}

func (d *delta) err() error {
	if len(d.missing) == 0 {
		return nil
	}
	return fmt.Errorf("the daemon no longer exports: %s", strings.Join(d.missing, "; "))
}

// ratio is num/den, and 0 when nothing happened to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveCounts turns the change between two readings into the live-count
// per-layer metrics.
func liveCounts(d *delta) (map[string]float64, error) {
	m := map[string]float64{}

	hit := d.counter("pimento_cache_requests_total", "outcome", "hit")
	miss := d.counter("pimento_cache_requests_total", "outcome", "miss")
	coal := d.counter("pimento_cache_requests_total", "outcome", "coalesced")
	m["server.cache_hit_share"] = ratio(hit, hit+miss+coal)
	m["server.cache_evictions"] = d.counter("pimento_cache_evictions_total")
	m["server.cache_invalidated"] = d.counter("pimento_cache_invalidations_total", "cache", "result")

	ahit := d.counter("pimento_analysis_cache_requests_total", "outcome", "hit")
	amiss := d.counter("pimento_analysis_cache_requests_total", "outcome", "miss")
	acoal := d.counter("pimento_analysis_cache_requests_total", "outcome", "coalesced")
	m["engine.analysis_hit_share"] = ratio(ahit, ahit+amiss+acoal)

	admitted := d.counter("pimento_sched_admissions_total", "outcome", "admitted")
	queued := d.counter("pimento_sched_admissions_total", "outcome", "queued")
	m["sched.queued_share"] = ratio(queued, admitted+queued)
	m["sched.wait_mean_us"] = 1e6 * ratio(
		d.histSum("pimento_sched_queue_wait_seconds"),
		d.histCount("pimento_sched_queue_wait_seconds"))
	m["sched.shed"] = d.statsz("shed")

	// The pipeline and operator series are fed by single-document
	// executions only; a fan-out search records none of them.
	executed := d.histCount("pimento_pipeline_stage_seconds", "stage", "execute")
	for _, st := range []string{"analyze", "build", "execute", "rank"} {
		m["engine.stage_"+st+"_ms_per_search"] = 1e3 * ratio(
			d.histSum("pimento_pipeline_stage_seconds", "stage", st), executed)
	}
	// Answers the access path fed into the operator chain, and how many
	// of them the top-k prunes dropped before the final sort.
	fed := 0.0
	for _, op := range []string{"scan", "listscan", "twigscan"} {
		fed += d.counter("pimento_plan_operator_answers_total", "op", op, "dir", "out")
	}
	pruned := d.counter("pimento_plan_operator_answers_total", "op", "topkPrune", "dir", "pruned")
	m["algebra.pruned_per_search"] = ratio(pruned, executed)
	m["algebra.answers_per_search"] = ratio(fed, executed)

	joined := d.counter("pimento_twigjoin_queries_total", "outcome", "joined")
	short := d.counter("pimento_twigjoin_queries_total", "outcome", "shortcircuit")
	m["twig.joined_share"] = ratio(joined+short, executed)
	m["twig.guide_pruned_per_query"] = ratio(d.counter("pimento_twigjoin_guide_pruned_total"), joined+short)
	m["twig.stack_pushes_per_query"] = ratio(d.counter("pimento_twigjoin_stack_pushes_total"), joined+short)
	m["twig.candidates_per_query"] = ratio(d.counter("pimento_twigjoin_candidates_total"), joined+short)

	m["corpus.mutations"] = d.statsz("mutations", "puts") + d.statsz("mutations", "deletes")
	return m, d.err()
}
