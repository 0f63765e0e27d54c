package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmldoc"
)

// daemonPipeline is the text pipeline pimentod indexes under with
// default flags (-stem=true -stopwords=false).
var daemonPipeline = text.Pipeline{Stem: true}

// answer is one ranked result in the form both sides reduce to: the
// wire's SearchResult and the library's engine.Result / corpus.Result.
type answer struct {
	Doc     string  `json:"doc"`
	Node    uint32  `json:"node"`
	Path    string  `json:"path"`
	S       float64 `json:"s"`
	K       float64 `json:"k"`
	Snippet string  `json:"snippet"`
}

// digest is the first eight bytes of the SHA-256 of a canonicalised
// answer list.
type digest uint64

// canonical renders a ranked answer list one answer per line, in rank
// order, floats in their shortest round-trip form — the same text for
// a JSON-decoded response and an in-process result.
func canonical(as []answer) string {
	var b []byte
	for _, a := range as {
		b = append(b, a.Doc...)
		b = append(b, '\x1f')
		b = strconv.AppendUint(b, uint64(a.Node), 10)
		b = append(b, '\x1f')
		b = append(b, a.Path...)
		b = append(b, '\x1f')
		b = strconv.AppendFloat(b, a.S, 'g', -1, 64)
		b = append(b, '\x1f')
		b = strconv.AppendFloat(b, a.K, 'g', -1, 64)
		b = append(b, '\x1f')
		b = append(b, a.Snippet...)
		b = append(b, '\n')
	}
	return string(b)
}

func digestOf(as []answer) digest {
	sum := sha256.Sum256([]byte(canonical(as)))
	return digest(binary.BigEndian.Uint64(sum[:8]))
}

// reference is the in-process copy of a document set: the sequential
// reference path the daemon's answers are checked against, and the
// corpus the traced replay drives.
type reference struct {
	corpus   *corpus.Corpus
	profiles map[string]*profile.Profile // registered name -> parsed body
}

// newReference parses and indexes docs exactly as PUT /docs does.
func newReference(docs, profiles []document) (*reference, error) {
	ref := &reference{corpus: corpus.New(daemonPipeline), profiles: map[string]*profile.Profile{}}
	for _, d := range docs {
		doc, err := xmldoc.ParseString(d.body)
		if err != nil {
			return nil, fmt.Errorf("reference: parse %s: %w", d.name, err)
		}
		ref.corpus.Put(d.name, doc)
	}
	for _, p := range profiles {
		prof, err := profile.ParseProfile(p.body)
		if err != nil {
			return nil, fmt.Errorf("reference: profile %s: %w", p.name, err)
		}
		ref.profiles[p.name] = prof
	}
	return ref, nil
}

// compile parses a wire request's query and resolves its profile.
func (ref *reference) compile(r *searchRequest) (*tpq.Query, *profile.Profile, error) {
	q, err := tpq.Parse(r.Query)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case r.Profile != "":
		prof, err := profile.ParseProfile(r.Profile)
		return q, prof, err
	case r.ProfileName != "":
		prof, ok := ref.profiles[r.ProfileName]
		if !ok {
			return nil, nil, fmt.Errorf("unknown profile %q", r.ProfileName)
		}
		return q, prof, nil
	}
	return q, nil, nil
}

// expect computes the answer the daemon must give to r. Single-document
// requests run the sequential reference path — one worker, scan access,
// no analysis or result cache — so a fault in the twig join, the
// parallel plan or either cache shows as a difference. Fan-out requests
// run the library fan-out over the reference corpus, which for
// live_corpus is rebuilt from the final document set (mutate ≡
// rebuild).
func (ref *reference) expect(r *searchRequest) ([]answer, error) {
	q, prof, err := ref.compile(r)
	if err != nil {
		return nil, err
	}
	if r.Doc == "*" {
		resp, err := ref.corpus.Search(q, prof, r.K, plan.Default)
		if err != nil {
			return nil, err
		}
		out := make([]answer, len(resp.Results))
		for i, x := range resp.Results {
			out[i] = answer{x.DocName, uint32(x.Node), x.Path, x.S, x.K, x.Snippet}
		}
		return out, nil
	}
	entry, ok := ref.corpus.Snapshot().Entry(r.Doc)
	if !ok {
		return nil, fmt.Errorf("unknown document %q", r.Doc)
	}
	resp, err := engine.FromParts(entry.Document(), entry.Index()).Search(engine.Request{
		Query: q, Profile: prof, K: r.K, Parallelism: 1, Access: plan.AccessScan,
	})
	if err != nil {
		return nil, err
	}
	out := make([]answer, len(resp.Results))
	for i, x := range resp.Results {
		out[i] = answer{r.Doc, uint32(x.Node), x.Path, x.S, x.K, x.Snippet}
	}
	return out, nil
}

// expectAll computes the digests of the given pool entries on all
// CPUs. The daemon is stopped by the time this runs, so the oracle
// never competes with the program it checks.
func (ref *reference) expectAll(w *workload, entries []int32) (map[int32]digest, error) {
	out := make(map[int32]digest, len(entries))
	type res struct {
		i   int32
		d   digest
		err error
	}
	work := make(chan int32)
	results := make(chan res)
	for c := 0; c < numWorkers(); c++ {
		go func() {
			for i := range work {
				as, err := ref.expect(&w.pool[i])
				results <- res{i, digestOf(as), err}
			}
		}()
	}
	go func() {
		for _, i := range entries {
			work <- i
		}
		close(work)
	}()
	var firstErr error
	for range entries {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("reference answer for request %d: %w", r.i, r.err)
		}
		out[r.i] = r.d
	}
	return out, firstErr
}

// poolDigest folds the expected digests of entries, in order, into the
// one value bench/golden.json pins per workload.
func poolDigest(entries []int32, expected map[int32]digest) string {
	h := sha256.New()
	var b [8]byte
	for _, i := range entries {
		binary.BigEndian.PutUint64(b[:], uint64(expected[i]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
