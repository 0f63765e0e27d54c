// The named-profile endpoints: the serving surface over
// internal/registry.
//
//	PUT    /profiles/{name} — register (or rebind) a profile body; the
//	                          body is vetted on write and rejected with
//	                          its diagnostics when any error-severity
//	                          check fires
//	GET    /profiles/{name} — fetch one binding (fingerprint, source,
//	                          share count)
//	DELETE /profiles/{name} — unbind a name (404 when absent)
//	GET    /profiles        — list bindings + distinct-body count
//
// Searches reference a registered profile with "profile_name"; the
// resolved body — not the name — feeds the result-cache key, so
// renames cannot alias cache entries and N names over one body share
// one key space. Deleting or rebinding a name never invalidates cached
// results: entries are keyed by profile content, and any search that
// would hit them with the same content is still entitled to the same
// bytes (mirroring the generation-stamp reasoning in DESIGN.md §14).
package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/registry"
)

// ProfileResponse is the PUT/GET/DELETE /profiles/{name} payload.
type ProfileResponse struct {
	Name string `json:"name"`
	// Fingerprint identifies the stored body (sha256 of the canonical
	// profile, content-addressed: equal bodies share it).
	Fingerprint string `json:"fingerprint"`
	// Created is true when a put introduced a new name (HTTP 201).
	Created bool `json:"created,omitempty"`
	// Shared is how many names (including this one) are bound to the
	// same stored body right now.
	Shared int `json:"shared,omitempty"`
	// Source is the registered profile DSL (GET only).
	Source string `json:"source,omitempty"`
}

// ProfilesResponse is the GET /profiles payload.
type ProfilesResponse struct {
	Profiles []registry.Entry `json:"profiles"`
	// Distinct is the number of deduplicated bodies behind the names.
	Distinct int `json:"distinct"`
}

// ProfileRejection is the vet-on-write refusal payload: the 400 body
// carries the diagnostics that vetoed the registration, in POST
// /lint's sorted order.
type ProfileRejection struct {
	Error string `json:"error"`
	Kind  string `json:"kind"` // always "vet"
	// Errors is the number of error-severity diagnostics.
	Errors      int                   `json:"errors"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
}

func (s *Server) handlePutProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, code, err := readBody(w, r, maxBodyBytes, "profile")
	if err != nil {
		s.rejectProfile(w, code, "parse", err)
		return
	}

	st, created, err := s.profiles.Put(r.Context(), name, string(src))
	if err != nil {
		var rej *registry.Rejection
		if errors.As(err, &rej) && rej.Diagnostics != nil {
			// Vet-on-write veto: the registration changed nothing; the
			// diagnostics tell the client why. Count the findings exactly
			// like /lint does for parse-time discoveries.
			s.analysis.RecordDiagnostics(rej.Diagnostics)
			s.metrics.registryRequests[[2]string{"put", "rejected"}].Inc()
			s.writeErrorBody(w, http.StatusBadRequest, &ProfileRejection{
				Error:       rej.Error(),
				Kind:        "vet",
				Errors:      analysis.ErrorCount(rej.Diagnostics),
				Diagnostics: rej.Diagnostics,
			})
			return
		}
		if errors.As(err, &rej) {
			s.rejectProfile(w, http.StatusBadRequest, "parse", err)
			return
		}
		// Only ctx expiry mid-vet reaches here.
		s.writeSearchError(w, err)
		return
	}

	outcome, status := "replaced", http.StatusOK
	if created {
		outcome, status = "created", http.StatusCreated
	}
	s.metrics.registryRequests[[2]string{"put", outcome}].Inc()
	s.writeJSON(w, status, &ProfileResponse{
		Name: name, Fingerprint: st.Fingerprint(), Created: created, Shared: st.Shared(),
	})
}

func (s *Server) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.profiles.Get(name)
	if !ok {
		s.metrics.registryRequests[[2]string{"get", "not_found"}].Inc()
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("unknown profile %q", name))
		return
	}
	s.metrics.registryRequests[[2]string{"get", "ok"}].Inc()
	s.writeJSON(w, http.StatusOK, &ProfileResponse{
		Name: name, Fingerprint: st.Fingerprint(), Shared: st.Shared(), Source: st.Source(),
	})
}

func (s *Server) handleDeleteProfile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.profiles.Delete(name)
	if !ok {
		s.metrics.registryRequests[[2]string{"delete", "not_found"}].Inc()
		s.writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("unknown profile %q", name))
		return
	}
	s.metrics.registryRequests[[2]string{"delete", "applied"}].Inc()
	s.writeJSON(w, http.StatusOK, &ProfileResponse{Name: name, Fingerprint: st.Fingerprint()})
}

func (s *Server) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	s.metrics.registryRequests[[2]string{"list", "ok"}].Inc()
	list := s.profiles.List()
	if list == nil {
		list = []registry.Entry{}
	}
	s.writeJSON(w, http.StatusOK, &ProfilesResponse{Profiles: list, Distinct: s.profiles.Distinct()})
}

// rejectProfile reports a refused registration that never reached the
// vet (bad name, parse failure, oversized body): the error response
// plus the {put, rejected} counter. Nothing changed.
func (s *Server) rejectProfile(w http.ResponseWriter, status int, kind string, err error) {
	s.metrics.registryRequests[[2]string{"put", "rejected"}].Inc()
	s.writeError(w, status, kind, err)
}
