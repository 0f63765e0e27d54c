package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call — the program under test carries no tracing of its
// own yet. Spans of one replayed request share Request; Parent is the
// ID of the span that made the call (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder started
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the
// benchmark ends. A nil recorder records nothing and reads no clock:
// the replay runs once with it and once without, and the difference is
// the tracing overhead.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) start(name string, request, parent int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndNS = int64(time.Since(r.t0))
}

// add records a root span that just ended and took d.
func (r *recorder) add(name string, request int, d time.Duration) {
	end := int64(time.Since(r.t0))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Request: request, Name: name, StartNS: end - int64(d), EndNS: end})
}

// rename names a span after an outcome known only once the call is
// under way (a cache lookup turns out a hit or a fill).
func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.spans[id-1].Name = name
}

// part is a named share of a parent span's time.
type part struct {
	name string
	ns   int64
}

// split lays child spans end to end inside parent, dividing its
// duration in proportion to parts. It turns a breakdown the callee
// reports about itself (a plan's per-operator self times, which under
// intra-query parallelism add up to busy time, not elapsed time) into
// spans that sum to the elapsed time the benchmark measured.
func (r *recorder) split(parent int, parts []part) {
	if r == nil {
		return
	}
	var total int64
	for _, p := range parts {
		total += p.ns
	}
	if total <= 0 {
		return
	}
	ps := r.spans[parent-1]
	dur := ps.EndNS - ps.StartNS
	at := ps.StartNS
	for _, p := range parts {
		if p.ns <= 0 {
			continue
		}
		d := int64(float64(dur) * float64(p.ns) / float64(total))
		id := len(r.spans) + 1
		r.spans = append(r.spans, span{ID: id, Parent: parent, Request: ps.Request, Name: p.name, StartNS: at, EndNS: at + d})
		at += d
	}
}

// selfTimes returns, per span ID, the span's duration minus the part
// of that interval its child spans cover. Overlapping children count
// once; a child reaching outside its parent counts only for the part
// inside.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, at := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, at), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// perRequest sums, per replayed request, the durations of the spans
// with the given name; requests with no such span are absent.
func perRequest(spans []span, name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Request] += float64(s.EndNS-s.StartNS) / 1e3 // us
		}
	}
	return out
}

// perRequestSelf is perRequest over self times.
func perRequestSelf(spans []span, self map[int]int64, name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Request] += float64(self[s.ID]) / 1e3
		}
	}
	return out
}

func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return median(xs)
}
