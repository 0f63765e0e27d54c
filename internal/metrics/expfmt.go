package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name (including any
// _bucket/_sum/_count suffix), its labels, and its value.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseExposition parses Prometheus text-exposition output (the subset
// this package renders) and validates its structure:
//
//   - every sample line parses as name{labels} value;
//   - every sample belongs to a family announced by a # TYPE line;
//   - histogram bucket counts are cumulative (non-decreasing in le)
//     and the +Inf bucket equals _count.
//
// _sum is deliberately not checked against the buckets: by convention
// it may lag _count under concurrent observation (the bucket add and
// the sum update are two steps), and no reader may assume otherwise.
//
// It exists for tests — the exposition lint in internal/server and the
// registry round-trip test — not for production scrape handling.
func ParseExposition(text string) (map[string]*Family, error) {
	fams := make(map[string]*Family)
	var cur *Family
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			f := fams[name]
			if f == nil {
				f = &Family{Name: name}
				fams[name] = f
			}
			f.Help = help
			cur = f
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, typ)
			}
			f := fams[name]
			if f == nil {
				f = &Family{Name: name}
				fams[name] = f
			}
			if f.Type != "" && f.Type != typ {
				return nil, fmt.Errorf("line %d: %s re-typed %s -> %s", ln+1, name, f.Type, typ)
			}
			f.Type = typ
			cur = f
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		f := familyFor(fams, s.Name)
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q has no # TYPE family", ln+1, s.Name)
		}
		if cur != nil && f != cur {
			// Samples may only appear under their own family's header
			// block; interleaving breaks scrapers.
			return nil, fmt.Errorf("line %d: sample %q appears under family %q", ln+1, s.Name, cur.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("family %q has no # TYPE line", f.Name)
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// familyFor resolves a sample name to its family, stripping histogram
// suffixes when the base name is a known histogram.
func familyFor(fams map[string]*Family, sample string) *Family {
	if f, ok := fams[sample]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			if f, ok := fams[base]; ok && f.Type == "histogram" {
				return f
			}
		}
	}
	return nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: Labels{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		for _, pair := range splitLabelPairs(rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !validName(k) {
				return s, fmt.Errorf("malformed label %q in %q", pair, line)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				return s, fmt.Errorf("label value %s in %q: %w", v, line, err)
			}
			s.Labels[k] = uq
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "+Inf" {
		s.Value = math.Inf(1)
		return s, nil
	}
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return s, fmt.Errorf("value %q in %q: %w", valStr, line, err)
	}
	s.Value = v
	return s, nil
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// checkHistogram validates cumulative buckets and sum/count presence
// for every label-set of a histogram family.
func checkHistogram(f *Family) error {
	type hist struct {
		les    []float64
		counts map[float64]float64
		count  float64
		hasCnt bool
	}
	bySig := make(map[string]*hist)
	sig := func(l Labels) string {
		cp := make(Labels, len(l))
		for k, v := range l {
			if k != "le" {
				cp[k] = v
			}
		}
		return signature(cp)
	}
	for _, s := range f.Samples {
		h := bySig[sig(s.Labels)]
		if h == nil {
			h = &hist{counts: make(map[float64]float64)}
			bySig[sig(s.Labels)] = h
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket sample without le label", f.Name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				var err error
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("%s: bad le %q", f.Name, leStr)
				}
			}
			h.les = append(h.les, le)
			h.counts[le] = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			h.count, h.hasCnt = s.Value, true
		}
	}
	for _, h := range bySig {
		sort.Float64s(h.les)
		prev := -1.0
		for _, le := range h.les {
			if c := h.counts[le]; c < prev {
				return fmt.Errorf("%s: bucket counts not cumulative at le=%v (%v < %v)", f.Name, le, c, prev)
			} else {
				prev = c
			}
		}
		if len(h.les) == 0 || !math.IsInf(h.les[len(h.les)-1], 1) {
			return fmt.Errorf("%s: histogram without +Inf bucket", f.Name)
		}
		if !h.hasCnt {
			return fmt.Errorf("%s: histogram without _count", f.Name)
		}
		if h.counts[math.Inf(1)] != h.count {
			return fmt.Errorf("%s: +Inf bucket %v != count %v", f.Name, h.counts[math.Inf(1)], h.count)
		}
	}
	return nil
}
