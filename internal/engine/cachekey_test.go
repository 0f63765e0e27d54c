package engine

import (
	"testing"

	"repro/internal/tpq"
)

// TestCacheKeyResolvedParallelism pins the resolved-parallelism keying
// contract in both directions:
//
//   - requests whose parallelism resolves identically (raw 0 and raw 1
//     on a document below the auto threshold) share one key, so they
//     share one cache entry instead of missing needlessly;
//   - when the resolution differs, the key differs with it, so an entry
//     stored under one resolution can never be served for an execution
//     that would run (and report) a different worker count.
func TestCacheKeyResolvedParallelism(t *testing.T) {
	e := newEngine(t)
	q, err := tpq.Parse(`//car[price < 2000]`)
	if err != nil {
		t.Fatal(err)
	}
	fp := e.Fingerprint()
	key := func(rawPar int) string {
		req := Request{Query: q, K: 3, Parallelism: rawPar}
		return req.CacheKey(fp, e.ResolvedParallelism(&req))
	}

	// The fixture is far below the threshold: auto (0) and explicit 1
	// both resolve to 1.
	if got, want := key(0), key(1); got != want {
		t.Errorf("identical resolutions got distinct keys:\n %s\n %s", got, want)
	}
	// Materially different explicit values stay distinct.
	if key(1) == key(2) {
		t.Error("parallelism 1 and 2 share a key")
	}
}

// TestCacheKeyTracksExecution executes the same query sequentially and
// with forced workers and checks the responses disagree exactly where
// the key disagrees — the end-to-end version of the keying contract.
func TestCacheKeyTracksExecution(t *testing.T) {
	e := newEngine(t)
	q, err := tpq.Parse(`//car[price < 2000]`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) (*Response, string) {
		req := Request{Query: q, K: 3, Parallelism: par}
		resp, err := e.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, req.CacheKey(e.Fingerprint(), e.ResolvedParallelism(&req))
	}
	seq, seqKey := run(0) // auto on a small document: sequential
	par, parKey := run(4)

	if seq.Parallelism != 1 {
		t.Errorf("auto resolved parallelism = %d, want 1", seq.Parallelism)
	}
	if par.Parallelism != 4 {
		t.Errorf("explicit resolved parallelism = %d, want 4", par.Parallelism)
	}
	// Identical ranked answers — parallelism never changes results…
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if seq.Results[i].Node != par.Results[i].Node {
			t.Errorf("result %d: node %v vs %v", i, seq.Results[i].Node, par.Results[i].Node)
		}
	}
	// …but distinct response metadata, hence the distinct keys.
	if seqKey == parKey {
		t.Error("sequential and parallel executions share a cache key")
	}
}
