package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fuzzServer is shared across fuzz iterations: handler behavior must
// not depend on per-request server state, and rebuilding the index for
// every input would make fuzzing useless.
var fuzzServer = sync.OnceValue(func() *Server {
	s := New(Config{CacheSize: 64})
	if err := s.AddXML("cars", carsXML); err != nil {
		panic(err)
	}
	return s
})

// FuzzSearchHandler feeds arbitrary bytes to POST /search and checks
// the handler's contract for hostile input: it never panics, always
// answers well-formed JSON, and classifies failures — 4xx (kind parse /
// not_found) for bad requests, 5xx only for engine-side failures.
func FuzzSearchHandler(f *testing.F) {
	f.Add(`{"doc":"cars","query":"//car"}`)
	f.Add(`{"doc":"cars","query":"//car[price < 2000]","k":3,"strategy":"naive"}`)
	f.Add(`{"doc":"cars","keywords":"good condition"}`)
	f.Add(`{"doc":"cars","query":"//car","profile":"rank K,V,S"}`)
	f.Add(`{"doc":"*","keywords":"car","k":2}`)
	f.Add(`{"doc":"cars","query":"//car","k":-1}`)
	f.Add(`{"doc":"cars","query":"//car[[["}`)
	f.Add(`{"doc":"nope","query":"//car"}`)
	f.Add(`{"doc":"cars","query":"//car","timeout_ms":1,"no_cache":true}`)
	f.Add(`not json at all`)
	f.Add(`{"doc":"cars","query":"//car","k":999999999}`)
	f.Add("{\"doc\":\"cars\",\"query\":\"//car\\u0000\\ud800\"}")

	f.Fuzz(func(t *testing.T, body string) {
		s := fuzzServer()
		req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req) // must not panic

		resp := rec.Result()
		data := rec.Body.Bytes()
		if !json.Valid(data) {
			t.Fatalf("status %d: response is not valid JSON: %q (input %q)",
				resp.StatusCode, data, body)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var sr SearchResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Fatalf("200 body does not decode as SearchResponse: %v (input %q)", err, body)
			}
		case resp.StatusCode >= 400:
			var er errorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("status %d body does not decode as errorResponse: %v (input %q)",
					resp.StatusCode, err, body)
			}
			if er.Error == "" || er.Kind == "" {
				t.Fatalf("status %d: empty error/kind in %q (input %q)", resp.StatusCode, data, body)
			}
			switch er.Kind {
			case "parse", "not_found":
				if resp.StatusCode >= 500 {
					t.Fatalf("request-side error %q answered with %d (input %q)",
						er.Kind, resp.StatusCode, body)
				}
			case "timeout", "canceled", "engine":
				if resp.StatusCode < 500 && resp.StatusCode != 499 {
					t.Fatalf("engine-side error %q answered with %d (input %q)",
						er.Kind, resp.StatusCode, body)
				}
			default:
				t.Fatalf("unknown error kind %q (input %q)", er.Kind, body)
			}
		default:
			t.Fatalf("unexpected status %d (input %q)", resp.StatusCode, body)
		}
	})
}
