// Package metrics is PIMENTO's self-instrumentation layer: an
// allocation-light registry of atomic counters, gauges and fixed-bucket
// histograms with Prometheus text-exposition rendering, plus the span
// tracing the engine threads through its personalization pipeline.
//
// Design constraints (DESIGN.md §11):
//
//   - Hot-path updates are single atomic operations. Handles are
//     resolved once at registration time; operators and HTTP handlers
//     hold *Counter/*Gauge/*Histogram pointers, never name lookups.
//   - Label cardinality is static: every label value a caller passes
//     must come from a compile-time-enumerable set (endpoint names,
//     operator kinds, outcome classes). `make ci` runs a lint that
//     scrapes /metrics and rejects series outside the allowlist, so a
//     dynamic value (a query string, a phrase, a document name) can
//     never leak into a label and blow up the series count.
//   - Rendering is deterministic: families in registration order,
//     series within a family in registration order, labels sorted by
//     key — so scrapes diff cleanly and tests can pin output.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric's label set. Values must be static (drawn from a
// fixed, code-enumerable set) — see the package comment.
type Labels map[string]string

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Store overwrites the counter's value. It exists for mirroring a
// monotone total accumulated elsewhere (e.g. the result cache's own
// counters) into the registry at scrape time; normal instrumentation
// uses Inc/Add.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an int64 that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations
// (by convention, seconds). Buckets are cumulative upper bounds; an
// implicit +Inf bucket catches the tail. Observations are lock-free:
// one atomic add on the bucket, one CAS loop on the float sum. The
// observation count is the bucket total — there is no separate counter
// for a concurrent scrape to catch out of step with the buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
}

// DefBuckets is the default latency bucket layout, in seconds: 100µs to
// 10s, roughly 2.5x steps — wide enough for both a sub-millisecond cars
// query and a multi-second cold XMark scan.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count returns the number of observations: the sum over all buckets.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// series is one (labels, value) member of a family.
type series struct {
	labels    Labels
	signature string
	c         *Counter
	g         *Gauge
	h         *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
	bySig           map[string]*series
}

// Registry holds metric families and renders them. Registration takes a
// mutex; reads and updates of registered handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or returns the already-registered) counter with
// the given name and labels. It panics when name is already registered
// as a different metric type — that is a programming error, not input.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.get(name, help, "counter", labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.get(name, help, "gauge", labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or returns) a histogram with the given bucket
// upper bounds (nil uses DefBuckets). Bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	s := r.get(name, help, "histogram", labels)
	if s.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		h := &Histogram{bounds: buckets}
		h.counts = make([]atomic.Int64, len(buckets)+1)
		s.h = h
	}
	return s.h
}

// get resolves (name, labels) to its series, creating family and series
// as needed. Callers hold no locks.
func (r *Registry) get(name, help, typ string, labels Labels) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for k := range labels {
		if !validName(k) {
			panic(fmt.Sprintf("metrics: invalid label name %q in %s", k, name))
		}
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bySig: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	s, ok := f.bySig[sig]
	if !ok {
		// Copy the labels: the caller's map must not alias registry state.
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp, signature: sig}
		f.bySig[sig] = s
		f.series = append(f.series, s)
	}
	return s
}

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// signature is the canonical key of a label set: sorted k=v pairs.
func signature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
		sb.WriteByte(';')
	}
	return sb.String()
}

// renderLabels renders {k="v",...} with keys sorted, or "" for none.
// extra, when non-empty, is appended last (used for histogram le).
func renderLabels(labels Labels, extraK, extraV string) string {
	if len(labels) == 0 && extraK == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	if extraK != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraK, extraV)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	// Series slices only grow under mu; snapshot lengths for a stable view.
	counts := make([]int, len(fams))
	for i, f := range fams {
		counts[i] = len(f.series)
	}
	r.mu.Unlock()

	var sb strings.Builder
	for fi, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series[:counts[fi]] {
			switch f.typ {
			case "counter":
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), s.c.Value())
			case "gauge":
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, renderLabels(s.labels, "", ""), s.g.Value())
			case "histogram":
				// _count is the cumulative total of this same pass over the
				// buckets, so it equals the +Inf bucket by construction even
				// while observations land mid-scrape.
				h := s.h
				cum := int64(0)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name,
						renderLabels(s.labels, "le", formatFloat(b)), cum)
				}
				cum += h.counts[len(h.bounds)].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", f.name,
					renderLabels(s.labels, "le", "+Inf"), cum)
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name,
					renderLabels(s.labels, "", ""), formatFloat(h.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name,
					renderLabels(s.labels, "", ""), cum)
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
