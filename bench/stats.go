package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of sorted (ascending):
// the smallest value with at least p percent of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the middle value (mean of the middle two for an even
// count); it sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) — the
// default "exclusive" method, which is what the acceptance driver
// computes run-to-run spread with. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// relSpread is the interquartile distance as a share of the median,
// the steadiness figure each gated metric's bound is compared with.
func relSpread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// quiet reduces one figure per sub-window (or per set-up) to the value
// at the edge of the quietest quarter: the lower quartile of a figure
// where lower is better, the upper quartile where higher is. Whatever
// else runs on the machine only ever slows the daemon down, so the
// quiet sub-windows are the ones closest to what the code costs, and a
// change to the code moves them all. Sub-windows without a sample
// (figure 0) are skipped.
func quiet(perWindow []float64, better string) float64 {
	var xs []float64
	for _, x := range perWindow {
		if x > 0 {
			xs = append(xs, x)
		}
	}
	sort.Float64s(xs)
	if better == "higher" {
		return percentile(xs, 75)
	}
	return percentile(xs, 25)
}

// windowed splits samples into fixed sub-windows of the measured
// interval by completion time and applies f to each sub-window's
// values.
func windowed(endNS []int64, values []float64, windowNS int64, windows int, f func(vals []float64) float64) []float64 {
	buckets := make([][]float64, windows)
	for i, e := range endNS {
		w := int(e / windowNS)
		if w < 0 || w >= windows {
			continue
		}
		buckets[w] = append(buckets[w], values[i])
	}
	out := make([]float64, windows)
	for w, b := range buckets {
		out[w] = f(b)
	}
	return out
}
