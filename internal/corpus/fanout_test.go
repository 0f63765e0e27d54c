package corpus

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/text"
	"repro/internal/tpq"
	"repro/internal/xmark"
)

// fanoutQueries and fanoutProfiles span the fan-out's rank modes: K,V,S
// (tiered with and without the age class, a negative weight outside the
// bounds' scope, a rule about another tag), then V,K,S, blend and no
// profile, under which nothing may be skipped.
var fanoutQueries = []string{
	`//person(*)[.//business[. ftcontains "Yes"]]`,
	`//person(*)[./address[./country[. ftcontains "United States"]]]`,
	`//person(*)[./profile[./interest and ./age]]`,
	`//person(*)[.//gender[. ftcontains "male"]]`,
}

var fanoutProfiles = []string{
	`kor k1 priority 1: x.tag = person & y.tag = person & ftcontains(x, "male") => x < y
kor k2 priority 2: x.tag = person & y.tag = person & ftcontains(x, "United States") => x < y
vor v1: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y
rank K,V,S`,
	`kor k1 priority 1: x.tag = person & y.tag = person & ftcontains(x, "College") => x < y
kor k2 priority 2 weight 2: x.tag = person & y.tag = person & ftcontains(x, "Phoenix") => x < y
rank K,V,S`,
	`kor k1 priority 1: x.tag = person & y.tag = person & ftcontains(x, "Yes") => x < y
kor k2 priority 2: x.tag = person & y.tag = person & ftcontains(x, "female") => x < y
kor k3 priority 3: x.tag = person & y.tag = person & ftcontains(x, "Graduate School") => x < y
rank K,V,S`,
	`kor k1 priority 1 weight -3: x.tag = person & y.tag = person & ftcontains(x, "United States") => x < y
kor k2 priority 2 weight 0.5: x.tag = person & y.tag = person & ftcontains(x, "male") => x < y
rank K,V,S`,
	`kor k1: x.tag = item & y.tag = item & ftcontains(x, "gold") => x < y
rank K,V,S`,
	`kor k1 priority 1: x.tag = person & y.tag = person & ftcontains(x, "male") => x < y
vor v1: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y
rank V,K,S`,
	`kor k1 priority 1: x.tag = person & y.tag = person & ftcontains(x, "College") => x < y
vor v1: x.tag = person & y.tag = person & x.age = 33 & y.age != 33 => x < y
rank blend`,
	``,
}

// fanoutCorpora[n-1] holds n documents: XMark documents of 10 to 50
// persons, the last a copy of another under a second name from n = 2 on,
// so K ties at the k-th straddle documents and the merge's name
// tie-break decides.
var fanoutCorpora = sync.OnceValue(func() []*Corpus {
	c0 := New(text.Pipeline{})
	var pool []*Prepared
	for i := range 8 {
		pool = append(pool, c0.Prepare(xmark.Generate(xmark.Config{Seed: int64(100 + i)}, 10+5*i)))
	}
	out := make([]*Corpus, 9)
	for n := 1; n <= 9; n++ {
		c := New(text.Pipeline{})
		for i := range n - 1 {
			c.Commit(fmt.Sprintf("d%d", i+1), pool[i])
		}
		if n == 1 {
			c.Commit("d1", pool[0])
		} else {
			c.Commit(fmt.Sprintf("d%d-copy", (n-1)/2+1), pool[(n-1)/2])
		}
		out[n-1] = c
	}
	return out
})

// fanoutShards are the shard counts the differential runs: 0 is the
// served fan-out.
var fanoutShards = []int{0, 2, 3, 4}

// fanoutCase is one fan-out of the differential: ndocs 1–9, a query, a
// profile (fanoutProfiles index), k, a strategy, the helpers granted and
// the shards (SearchSharded without a deadline; below 2, SearchContext).
type fanoutCase struct {
	ndocs, query, prof, k int
	strat                 plan.Strategy
	helpers, shards       int
}

// checkFanout runs c against the oracle and fails unless the responses
// agree; it returns the documents the fan-out skipped.
func checkFanout(t *testing.T, c fanoutCase) int {
	t.Helper()
	corp := fanoutCorpora()[c.ndocs-1]
	corp.SetBudget(sched.NewBudget(c.helpers))
	defer corp.SetBudget(nil)
	q := tpq.MustParse(fanoutQueries[c.query])
	var prof *profile.Profile
	if src := fanoutProfiles[c.prof]; src != "" {
		prof = profile.MustParseProfile(src)
	}
	snap := corp.Snapshot()
	sharded, err := snap.SearchSharded(context.Background(), q, prof, c.k, c.strat, ShardOptions{Shards: c.shards})
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	if sharded.Degraded {
		t.Fatalf("%+v: degraded without a deadline: %v", c, sharded.TimedOutShards)
	}
	got := &sharded.Response
	units := make([]unit, len(snap.names))
	for i := range snap.names {
		units[i] = unit{id: i, names: snap.names[i : i+1]}
	}
	want, err := snap.oracleFanOut(context.Background(), q, prof, c.k, c.strat, units, 0, nil)
	if err != nil {
		t.Fatalf("%+v: oracle: %v", c, err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.AppliedSRs, want.AppliedSRs) || got.DocsSearched != want.DocsSearched {
		t.Fatalf("%+v: the fan-out differs from its oracle\n got %d docs %+v\nwant %d docs %+v",
			c, got.DocsSearched, got.Results, want.DocsSearched, want.Results)
	}
	if got.DocsSkipped > 0 && algebra.ModeForProfile(prof) != algebra.ModeKVS {
		t.Fatalf("%+v: %d documents skipped outside rank K,V,S", c, got.DocsSkipped)
	}
	return got.DocsSkipped
}

// TestFanoutMatchesOracle holds the shared-threshold fan-out, served and
// sharded, to the per-document one it replaced, over a seeded sample of
// corpora, rank modes, k from 1 to past every match, 0, 1 or 3 helpers
// and 0, 2, 3 or 4 shards.
func TestFanoutMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ks := []int{1, 2, 3, 5, 8, 13, 40, 1000}
	strats := []plan.Strategy{plan.Push, plan.Push, plan.Naive, plan.InterleaveNoSort, plan.InterleaveSort}
	skipped := 0
	for range 300 {
		skipped += checkFanout(t, fanoutCase{
			ndocs: 1 + r.Intn(9), query: r.Intn(len(fanoutQueries)), prof: r.Intn(len(fanoutProfiles)),
			k: ks[r.Intn(len(ks))], strat: strats[r.Intn(len(strats))], helpers: []int{0, 1, 3}[r.Intn(3)],
			shards: fanoutShards[r.Intn(len(fanoutShards))],
		})
	}
	if skipped == 0 {
		t.Fatal("no fan-out skipped a document: the differential does not reach the skip")
	}
}

func FuzzFanoutMatchesOracle(f *testing.F) {
	f.Add(uint8(8), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(9), uint8(1), uint8(2), uint8(10), uint8(0), uint8(3), uint8(1))
	f.Add(uint8(5), uint8(3), uint8(6), uint8(1), uint8(2), uint8(1), uint8(2))
	f.Add(uint8(2), uint8(2), uint8(7), uint8(200), uint8(4), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, ndocs, query, prof, k, strat, helpers, shards uint8) {
		checkFanout(t, fanoutCase{
			ndocs: 1 + int(ndocs)%9, query: int(query) % len(fanoutQueries), prof: int(prof) % len(fanoutProfiles),
			k: 1 + int(k), strat: plan.Strategies[int(strat)%len(plan.Strategies)], helpers: []int{0, 1, 3}[int(helpers)%3],
			shards: fanoutShards[int(shards)%len(fanoutShards)],
		})
	})
}

// fanoutWork is what a fan-out's plans did: plans built, documents
// skipped, tiers taken off the tier lists and candidates fed to chains.
type fanoutWork struct{ plans, skipped, tiers, chainIn int }

// TestFanoutWorkPinned pins the work of a fixed table of fan-outs over
// the nine-document corpus. At zero helpers the drain is sequential, so
// the counts are deterministic; a change that moves one rewrites the
// table, and the diff is the review.
func TestFanoutWorkPinned(t *testing.T) {
	var got fanoutWork
	planRan = func(p *plan.Plan) {
		st := p.Stats()
		if p.JoinStats() != nil {
			st = st[1:] // the join's own entry; the source follows
		}
		got.plans++
		got.tiers += p.TiersVisited()
		got.chainIn += st[0].Out
	}
	defer func() { planRan = nil }()
	pin := func(c fanoutCase, want fanoutWork) {
		got = fanoutWork{}
		got.skipped = checkFanout(t, c)
		if got != want {
			t.Errorf("query %d profile %d k %d shards %d: work %+v, want %+v", c.query, c.prof, c.k, c.shards, got, want)
		}
	}
	for _, c := range []struct {
		query, prof, k int
		want           fanoutWork
	}{
		{0, 0, 10, fanoutWork{9, 0, 56, 69}},
		{0, 1, 3, fanoutWork{7, 2, 26, 106}},
		{1, 2, 10, fanoutWork{9, 0, 72, 76}},
		{3, 0, 5, fanoutWork{5, 4, 26, 32}},
		{2, 1, 1, fanoutWork{5, 4, 8, 4}},
		{0, 3, 10, fanoutWork{9, 0, 0, 131}},
		{0, 5, 10, fanoutWork{9, 0, 0, 131}},
	} {
		pin(fanoutCase{ndocs: 9, query: c.query, prof: c.prof, k: c.k, strat: plan.Push}, c.want)
	}
	// Two shards, d5-copy alone in one: each shard shares a threshold
	// with its own documents only, so the eight-document shard skips
	// three and d5-copy runs (the served fan-out's row above skips four).
	pin(fanoutCase{ndocs: 9, query: 3, prof: 0, k: 5, strat: plan.Push, shards: 2}, fanoutWork{6, 3, 28, 37})
}
