package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
)

// TestCacheEquivalenceProperty draws random (query, profile, K,
// strategy) combinations and checks the cache contract on
// each draw:
//
//  1. repeating the identical request is a HIT whose payload is
//     byte-identical to the first answer;
//  2. a cold execution of the same request (no_cache) produces the same
//     payload modulo volatile fields — the cache never changes answers;
//  3. mutating any single option is a MISS — the key covers every
//     option that can change the answer.
func TestCacheEquivalenceProperty(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 1024})

	queries := []string{
		carsQuery,
		`//car[price < 2000]`,
		`//car[./description[. ftcontains "low mileage"]]`,
		`//car`,
	}
	profiles := []string{
		"",
		carsProfile,
		`vor v1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y` + "\nrank K,V,S\n",
	}
	strategies := []string{"", "naive", "interleave", "interleave-sort", "push"}

	rng := rand.New(rand.NewSource(20260806)) // fixed seed: failures must reproduce
	seen := make(map[string]bool)
	// "" and "push" are one strategy and so one cache entry: the seen-key
	// normalizes the spelling the way the server does.
	seenKey := func(r SearchRequest) string {
		if r.Strategy == "" {
			r.Strategy = "push"
		}
		b, _ := json.Marshal(&r)
		return string(b)
	}

	for draw := 0; draw < 40; draw++ {
		req := SearchRequest{
			Doc:      "cars",
			Query:    queries[rng.Intn(len(queries))],
			Profile:  profiles[rng.Intn(len(profiles))],
			K:        1 + rng.Intn(6),
			Strategy: strategies[rng.Intn(len(strategies))],
		}
		id, _ := json.Marshal(&req)

		status1, hdr1, body1 := post(t, ts, "/search", req)
		if status1 != http.StatusOK {
			t.Fatalf("draw %d (%s): status %d body %s", draw, id, status1, body1)
		}
		wantFirst := "MISS"
		if seen[seenKey(req)] {
			wantFirst = "HIT"
		}
		seen[seenKey(req)] = true
		if got := hdr1.Get("X-Cache"); got != wantFirst {
			t.Errorf("draw %d (%s): first X-Cache = %q, want %s", draw, id, got, wantFirst)
		}

		// (1) repeat: HIT, byte-identical.
		status2, hdr2, body2 := post(t, ts, "/search", req)
		if status2 != http.StatusOK {
			t.Fatalf("draw %d (%s): repeat status %d", draw, id, status2)
		}
		if got := hdr2.Get("X-Cache"); got != "HIT" {
			t.Errorf("draw %d (%s): repeat X-Cache = %q, want HIT", draw, id, got)
		}
		if !bytes.Equal(stablePart(t, body1), stablePart(t, body2)) {
			t.Errorf("draw %d (%s): cached body diverges from first answer\n got %s\nwant %s",
				draw, id, body2, body1)
		}

		// (2) cold no_cache run: same answer modulo volatile fields.
		cold := req
		cold.NoCache = true
		status3, hdr3, body3 := post(t, ts, "/search", cold)
		if status3 != http.StatusOK {
			t.Fatalf("draw %d (%s): cold status %d", draw, id, status3)
		}
		if got := hdr3.Get("X-Cache"); got != "" {
			t.Errorf("draw %d (%s): no_cache got X-Cache %q", draw, id, got)
		}
		if got, want := normalizePayload(t, body3), normalizePayload(t, body1); !bytes.Equal(got, want) {
			t.Errorf("draw %d (%s): cold execution diverges from cached answer\n got %s\nwant %s",
				draw, id, got, want)
		}

		// (3) mutate one option: MISS.
		mut := req
		switch rng.Intn(3) {
		case 0:
			mut.K = req.K + 10
		case 1:
			mut.Strategy = "naive"
			if req.Strategy == "naive" {
				mut.Strategy = "interleave-sort"
			}
		case 2:
			mut.Profile = carsProfile
			if req.Profile == carsProfile {
				mut.Profile = ""
			}
		}
		mid, _ := json.Marshal(&mut)
		if seen[seenKey(mut)] {
			continue // mutation collided with an earlier draw; HIT is correct there
		}
		seen[seenKey(mut)] = true
		status4, hdr4, body4 := post(t, ts, "/search", mut)
		if status4 != http.StatusOK {
			t.Fatalf("draw %d (%s): mutated status %d body %s", draw, mid, status4, body4)
		}
		if got := hdr4.Get("X-Cache"); got != "MISS" {
			t.Errorf("draw %d: mutated request (%s) X-Cache = %q, want MISS", draw, mid, got)
		}
	}
}
