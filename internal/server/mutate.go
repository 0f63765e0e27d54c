// Document mutation endpoints: the serving layer's live-corpus surface.
//
//	PUT    /docs/{name} — index the body off the request path, then swap
//	                      the new entry into a fresh corpus snapshot
//	DELETE /docs/{name} — remove a document (404 when absent)
//	GET    /docs        — list registered names + corpus generation
//
// The expensive half of a put (parse, index build, content hashing)
// happens before any lock, so concurrent searches — and other mutations
// — never stall behind it. The commit path (snapshot swap, targeted
// cache invalidation, watch publish) runs under one server-wide
// mutation lock so /watch observes mutations in generation order and an
// invalidation can never interleave into the middle of another
// mutation's publish. A request that fails validation or parsing
// changes nothing: no snapshot swap, no cache eviction, no watch event.
package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/corpus"
	"repro/internal/xmldoc"
)

// MutateResponse is the PUT/DELETE /docs/{name} payload.
type MutateResponse struct {
	Doc string `json:"doc"`
	// Op is "put" or "delete".
	Op string `json:"op"`
	// Gen is the corpus generation the mutation produced.
	Gen uint64 `json:"gen"`
	// Created is true when a put introduced a new name (HTTP 201).
	Created bool `json:"created,omitempty"`
	// Nodes is the indexed document's node count (puts only).
	Nodes int `json:"nodes,omitempty"`
	// Invalidated is the number of result-cache entries dropped: entries
	// tagged with this document plus all fan-out entries. Entries for
	// untouched documents survive.
	Invalidated int `json:"invalidated"`
}

// DocsResponse is the GET /docs payload.
type DocsResponse struct {
	Docs []string `json:"docs"`
	Gen  uint64   `json:"gen"`
}

// validateDocName rejects names the rest of the API cannot address:
// "" and "*" mean fan-out in /search, and tag TagAll in the cache.
func validateDocName(name string) error {
	if name == "" || name == "*" {
		return fmt.Errorf("invalid document name %q", name)
	}
	if strings.ContainsAny(name, "/\x00") {
		return fmt.Errorf("invalid document name %q: must not contain '/'", name)
	}
	return nil
}

// applyPut commits a prepared document and runs the post-swap
// bookkeeping under the mutation lock: targeted invalidation of the
// mutated name's cache entries (plus fan-out entries), then the watch
// publish — so subscribers woken by the event can never re-read stale
// cached bytes for the name it announces.
func (s *Server) applyPut(name string, p *corpus.Prepared) (corpus.Mutation, int) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	mut := s.reg.Commit(name, p)
	dropped := s.cache.Invalidate(name)
	s.watch.publish(WatchEvent{Gen: mut.Gen, Op: "put", Doc: name})
	return mut, dropped
}

// applyDelete is applyPut's delete twin; ok is false when the name was
// not registered (nothing changed, nothing published).
func (s *Server) applyDelete(name string) (corpus.Mutation, int, bool) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	mut, ok := s.reg.Delete(name)
	if !ok {
		return mut, 0, false
	}
	dropped := s.cache.Invalidate(name)
	s.watch.publish(WatchEvent{Gen: mut.Gen, Op: "delete", Doc: name})
	return mut, dropped, true
}

func (s *Server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateDocName(name); err != nil {
		s.rejectMutation(w, "put", http.StatusBadRequest, "parse", err)
		return
	}
	src, code, err := readBody(w, r, s.cfg.MaxDocBytes, "document")
	if err != nil {
		s.rejectMutation(w, "put", code, "parse", err)
		return
	}
	doc, err := xmldoc.ParseBytes(src)
	if err != nil {
		// A malformed document mutates nothing: the 400 carries the parse
		// diagnostic, and neither the snapshot, the cache, nor /watch see
		// any change (pinned by FuzzDocUpdate).
		s.rejectMutation(w, "put", http.StatusBadRequest, "parse", err)
		return
	}

	// Index + fingerprint off-lock; only the snapshot swap serializes.
	prepared := s.reg.Prepare(doc)
	mut, dropped := s.applyPut(name, prepared)
	s.recordMutation("put", mut.Created)

	status := http.StatusOK
	if mut.Created {
		status = http.StatusCreated
	}
	s.writeJSON(w, status, &MutateResponse{
		Doc: name, Op: "put", Gen: mut.Gen, Created: mut.Created,
		Nodes: mut.Nodes, Invalidated: dropped,
	})
}

func (s *Server) handleDeleteDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateDocName(name); err != nil {
		s.rejectMutation(w, "delete", http.StatusBadRequest, "parse", err)
		return
	}
	mut, dropped, ok := s.applyDelete(name)
	if !ok {
		s.rejectMutation(w, "delete", http.StatusNotFound, "not_found",
			fmt.Errorf("unknown document %q", name))
		return
	}
	s.recordMutation("delete", false)
	s.writeJSON(w, http.StatusOK, &MutateResponse{
		Doc: name, Op: "delete", Gen: mut.Gen, Invalidated: dropped,
	})
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	names := snap.Names()
	if names == nil {
		names = []string{}
	}
	s.writeJSON(w, http.StatusOK, &DocsResponse{Docs: names, Gen: snap.Generation()})
}

// recordMutation counts an applied mutation.
func (s *Server) recordMutation(op string, created bool) {
	outcome := "replaced"
	if op == "delete" {
		outcome = "applied"
	} else if created {
		outcome = "created"
	}
	s.metrics.mutations[[2]string{op, outcome}].Inc()
}

// rejectMutation reports a refused mutation: the error response plus
// the {op, outcome="rejected"} counter. Nothing else changed.
func (s *Server) rejectMutation(w http.ResponseWriter, op string, status int, kind string, err error) {
	s.metrics.mutations[[2]string{op, "rejected"}].Inc()
	s.writeError(w, status, kind, err)
}
