package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/xmark"
)

// scale is the size of a run's inputs. The benchmark runs at
// fullScale; tests shrink it.
type scale struct {
	big    int // bytes of the single document of ft_single and struct_twig
	small  int // bytes of each of the eight documents of cached_mix and live_corpus
	replay int // requests the traced run replays stage by stage
}

var fullScale = scale{big: xmark.PaperSizes[6], small: xmark.PaperSizes[2], replay: 200} // 5.7 MB, 468 KB

// document is one named XML (or profile DSL) body sent with PUT.
type document struct{ name, body string }

// searchRequest is the /search body the generator sends. Fields the
// workloads never set are omitted, as a real client would.
type searchRequest struct {
	Doc         string `json:"doc"`
	Query       string `json:"query"`
	Profile     string `json:"profile,omitempty"`
	ProfileName string `json:"profile_name,omitempty"`
	K           int    `json:"k"`
	NoCache     bool   `json:"no_cache,omitempty"`
}

// mutation is one slot of the live_corpus writer's schedule: replace
// document doc with its given version, deleting it first when
// deleteFirst is set.
type mutation struct {
	due         time.Duration
	doc         int
	version     int
	deleteFirst bool
}

// workload is one traffic mix, fully generated from the seed before
// the program under test sees a byte of it.
type workload struct {
	name string

	docs     []document   // loaded with PUT /docs during set-up
	versions [][]document // live_corpus: versions[v][doc], versions[0] = docs
	profiles []document   // registered with PUT /profiles during set-up

	pool   []searchRequest // the distinct requests
	bodies [][]byte        // pool entries marshaled once
	stream []int32         // pool indices in send order; wraps around
	warmup int             // stream prefix sent during set-up

	clients   int             // connections driving searches
	arrivals  []time.Duration // open loop: when each window request is due
	mutations []mutation      // live_corpus writer schedule
	fanout    bool            // searches address doc "*"
	probes    int             // live_corpus: stream prefix re-issued after the writer stops
}

// workloadNames lists the workloads in run order.
var workloadNames = []string{"ft_single", "struct_twig", "cached_mix", "live_corpus"}

// Tuning shared with the README's glossary.
const (
	cachedMixRate    = 500.0 // open-loop arrivals per second
	cachedMixZipfS   = 1.0
	liveMutationRate = 4.0 // writer slots per second
	liveDocVersions  = 3
)

const fig5QuerySrc = `//person(*)[.//business[. ftcontains "Yes"]]`

var fig5KORPhrases = []string{"male", "United States", "College", "Phoenix"}

// fig5ProfileSrc is the DSL source of workload.Fig5Profile(n). The
// daemon takes profile source and the fixture only exists parsed, so
// the text is rebuilt here; TestFig5ProfileSrc pins the two together.
func fig5ProfileSrc(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb,
			"kor pi%d priority %d: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n",
			i+1, i+1, fig5KORPhrases[i])
	}
	sb.WriteString("vor pi5: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y\n")
	sb.WriteString("rank K,V,S\n")
	return sb.String()
}

// structQueries are the struct_twig pool: person-rooted structure-only
// patterns that differ in which address children and which profile
// child they require. None carries a keyword predicate, so the scoring
// operators have nothing to score.
func structQueries() []string {
	addr := []string{"street", "city", "country", "zipcode"}
	third := []string{".//business", ".//education", ".//gender", ".//age"}
	var out []string
	for i := 0; i < len(addr); i++ {
		for j := i + 1; j < len(addr); j++ {
			for _, t := range third {
				out = append(out, fmt.Sprintf("//person[./address[./%s and ./%s] and %s]", addr[i], addr[j], t))
			}
		}
	}
	return out
}

// personQueries are keyword queries over XMark persons: cached_mix uses
// the first eight, live_corpus all sixteen.
var personQueries = []string{
	`//person(*)[.//business[. ftcontains "Yes"]]`,
	`//person(*)[./address[./country[. ftcontains "United States"]]]`,
	`//person(*)[.//education[. ftcontains "College"]]`,
	`//person(*)[.//gender[. ftcontains "male"]]`,
	`//person(*)[./address[./city[. ftcontains "Phoenix"]]]`,
	`//person(*)[.//business[. ftcontains "No"]]`,
	`//person(*)[./profile[./interest and ./age]]`,
	`//person(*)[./homepage and .//business[. ftcontains "Yes"]]`,
	`//person(*)[./address[./country[. ftcontains "Germany"]]]`,
	`//person(*)[.//education[. ftcontains "Graduate School"]]`,
	`//person(*)[.//gender[. ftcontains "female"]]`,
	`//person(*)[./address[./city[. ftcontains "NYC"]]]`,
	`//person(*)[./address[./city[. ftcontains "Boston"]]]`,
	`//person(*)[./address[./country[. ftcontains "France"]]]`,
	`//person(*)[.//education[. ftcontains "High School"]]`,
	`//person(*)[./phone and .//business[. ftcontains "Yes"]]`,
}

var personKORPhrases = []string{
	"male", "female", "United States", "Germany", "College",
	"Graduate School", "Phoenix", "NYC", "Boston", "Yes",
}

// personProfileSrc is the i-th of sixteen distinct profiles over XMark
// persons: two or three keyword ordering rules and, on odd i, the
// Fig. 5 value rule.
func personProfileSrc(i int) string {
	picks := []int{i % 10, (i*3 + 1 + i/10) % 10}
	if i%4 == 0 {
		picks = append(picks, (i*7+5)%10)
	}
	var sb strings.Builder
	seen := map[int]bool{}
	n := 0
	for _, p := range picks {
		if seen[p] {
			continue
		}
		seen[p] = true
		n++
		fmt.Fprintf(&sb,
			"kor k%d priority %d: x.tag = person & y.tag = person & ftcontains(x, %q) => x < y\n",
			n, n, personKORPhrases[p])
	}
	if i%2 == 1 {
		sb.WriteString("vor v1: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y\n")
	}
	sb.WriteString("rank K,V,S\n")
	return sb.String()
}

// subSeed derives an independent generator seed for one named part of
// a workload, so that adding a part never shifts another's stream.
func subSeed(seed int64, part string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, part)
	return int64(h.Sum64() >> 1)
}

// xmarkXML generates one XMark document of about size bytes.
func xmarkXML(seed int64, part string, size int) string {
	doc := xmark.GenerateSized(xmark.Config{Seed: subSeed(seed, part)}, size)
	var sb strings.Builder
	sb.Grow(size + size/8)
	_ = doc.WriteXML(&sb, "") // a strings.Builder never fails
	return sb.String()
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. math/rand's Zipf needs s > 1; the cached_mix skew is
// exactly 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64() * z.cdf[len(z.cdf)-1]
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// streamLen is how many stream entries the closed-loop workloads
// generate; a client that exhausts them wraps around.
const streamLen = 1 << 16

// buildWorkload generates the named workload from seed: documents,
// profiles, the pool of distinct requests, the send order and (for
// the open loop and the writer) the schedule over a window of the
// given length.
func buildWorkload(name string, seed int64, sc scale, window time.Duration) (*workload, error) {
	w := &workload{name: name, clients: 2}
	rng := rand.New(rand.NewSource(subSeed(seed, name+"/stream")))
	switch name {
	case "ft_single":
		w.docs = []document{{"xmark", xmarkXML(seed, "big", sc.big)}}
		for n := 1; n <= 4; n++ {
			w.pool = append(w.pool, searchRequest{
				Doc: "xmark", Query: fig5QuerySrc, Profile: fig5ProfileSrc(n), K: 10, NoCache: true,
			})
		}
		w.stream = uniformStream(rng, len(w.pool))
		w.warmup = 64

	case "struct_twig":
		// The same document as ft_single: the two workloads differ only
		// in which layer their queries load.
		w.docs = []document{{"xmark", xmarkXML(seed, "big", sc.big)}}
		for _, q := range structQueries() {
			w.pool = append(w.pool, searchRequest{Doc: "xmark", Query: q, K: 10, NoCache: true})
		}
		w.stream = uniformStream(rng, len(w.pool))
		w.warmup = 128

	case "cached_mix":
		w.docs = smallDocs(seed, sc, 0)
		for i := 0; i < 16; i++ {
			w.profiles = append(w.profiles, document{fmt.Sprintf("p%02d", i+1), personProfileSrc(i)})
		}
		for _, d := range w.docs {
			for _, q := range personQueries[:8] {
				for _, p := range w.profiles {
					for _, k := range []int{5, 10} {
						w.pool = append(w.pool, searchRequest{Doc: d.name, Query: q, ProfileName: p.name, K: k})
					}
				}
			}
		}
		// Popularity rank -> pool entry through a seeded permutation, so
		// the hot requests spread over documents, queries and profiles.
		perm := rng.Perm(len(w.pool))
		z := newZipf(len(w.pool), cachedMixZipfS)
		w.warmup = 2048 // fills the 512-entry cache to its steady hit share
		for t := time.Duration(0); t < window; {
			t += time.Duration(rng.ExpFloat64() / cachedMixRate * float64(time.Second))
			w.arrivals = append(w.arrivals, t)
		}
		w.stream = make([]int32, w.warmup+len(w.arrivals))
		for i := range w.stream {
			w.stream[i] = int32(perm[z.draw(rng)])
		}

	case "live_corpus":
		w.fanout = true
		for v := 0; v < liveDocVersions; v++ {
			w.versions = append(w.versions, smallDocs(seed, sc, v))
		}
		w.docs = w.versions[0]
		for _, q := range personQueries {
			for p := 0; p < 8; p++ {
				for k := 1; k <= 32; k++ {
					w.pool = append(w.pool, searchRequest{Doc: "*", Query: q, Profile: personProfileSrc(p), K: k})
				}
			}
		}
		for _, i := range rng.Perm(len(w.pool)) {
			w.stream = append(w.stream, int32(i))
		}
		w.warmup, w.probes = 32, 32
		w.clients = 1 // the second connection is the writer's
		gap := time.Duration(float64(time.Second) / liveMutationRate)
		for m := 0; time.Duration(m)*gap < window; m++ {
			w.mutations = append(w.mutations, mutation{
				due:         time.Duration(m) * gap,
				doc:         m % len(w.docs),
				version:     (m/len(w.docs) + 1) % liveDocVersions,
				deleteFirst: m%8 == 7,
			})
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	w.bodies = make([][]byte, len(w.pool))
	for i, r := range w.pool {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("marshal request: %w", err)
		}
		w.bodies[i] = b
	}
	return w, nil
}

func uniformStream(rng *rand.Rand, n int) []int32 {
	s := make([]int32, streamLen)
	for i := range s {
		s[i] = int32(rng.Intn(n))
	}
	return s
}

// smallDocs generates version v of the eight documents d1..d8.
func smallDocs(seed int64, sc scale, v int) []document {
	docs := make([]document, 8)
	for i := range docs {
		name := fmt.Sprintf("d%d", i+1)
		docs[i] = document{name, xmarkXML(seed, fmt.Sprintf("%s/v%d", name, v), sc.small)}
	}
	return docs
}

// at returns the pool index of the i-th request in send order.
func (w *workload) at(i int) int32 { return w.stream[i%len(w.stream)] }
