package corpus

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/text"
	"repro/internal/tpq"
)

func TestShardNamesCoversAndIsDeterministic(t *testing.T) {
	names := make([]string, 50)
	for i := range names {
		names[i] = fmt.Sprintf("doc-%02d", i)
	}
	for _, n := range []int{1, 2, 3, 8, 16} {
		shards := ShardNames(names, n)
		if len(shards) != n {
			t.Fatalf("n=%d: got %d shards", n, len(shards))
		}
		seen := map[string]int{}
		for i, sh := range shards {
			for _, name := range sh {
				if prev, dup := seen[name]; dup {
					t.Fatalf("n=%d: %q on shards %d and %d", n, name, prev, i)
				}
				seen[name] = i
			}
		}
		if len(seen) != len(names) {
			t.Fatalf("n=%d: %d of %d names assigned", n, len(seen), len(names))
		}
		// Determinism: a second call produces the identical partition.
		if again := ShardNames(names, n); !reflect.DeepEqual(shards, again) {
			t.Fatalf("n=%d: partition not deterministic", n)
		}
	}
}

func TestShardNamesEdgeCases(t *testing.T) {
	// n < 1 falls back to a single shard holding everything.
	shards := ShardNames([]string{"a", "b"}, 0)
	if len(shards) != 1 || len(shards[0]) != 2 {
		t.Fatalf("n=0: %+v", shards)
	}
	// n == 1 preserves order and copies the slice.
	names := []string{"z", "a", "m"}
	shards = ShardNames(names, 1)
	if !reflect.DeepEqual(shards[0], names) {
		t.Fatalf("n=1 order not preserved: %+v", shards[0])
	}
	shards[0][0] = "mutated"
	if names[0] != "z" {
		t.Fatal("n=1 aliases the input slice")
	}
	// Empty input: n empty shards.
	for _, sh := range ShardNames(nil, 3) {
		if len(sh) != 0 {
			t.Fatalf("empty input produced %+v", sh)
		}
	}
}

// TestShardNamesAssignmentIsPerName: a document's shard depends only on
// (name, n) — removing other documents never moves the rest.
func TestShardNamesAssignmentIsPerName(t *testing.T) {
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("doc-%02d", i)
	}
	const n = 4
	full := map[string]int{}
	for i, sh := range ShardNames(names, n) {
		for _, name := range sh {
			full[name] = i
		}
	}
	subset := names[:10]
	for i, sh := range ShardNames(subset, n) {
		for _, name := range sh {
			if full[name] != i {
				t.Fatalf("%q moved from shard %d to %d when other docs left", name, full[name], i)
			}
		}
	}
}

// TestShardNamesStability: growing the ring from n to n+1 shards moves
// only a bounded fraction of names — the consistent-hashing point.
func TestShardNamesStability(t *testing.T) {
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("doc-%03d", i)
	}
	assign := func(n int) map[string]int {
		m := map[string]int{}
		for i, sh := range ShardNames(names, n) {
			for _, name := range sh {
				m[name] = i
			}
		}
		return m
	}
	before, after := assign(4), assign(5)
	moved := 0
	for name, sh := range before {
		if after[name] != sh {
			moved++
		}
	}
	// Ideal is 1/5 of the names; vnode imbalance allows slack, but well
	// under half moving is what distinguishes consistent hashing from
	// mod-N rehashing (which would move ~4/5).
	if moved > len(names)/2 {
		t.Fatalf("%d of %d names moved going 4→5 shards", moved, len(names))
	}
}

// shardTestCorpus is testCorpus with more documents, so every shard
// count in the differential actually receives work.
func shardTestCorpus(t *testing.T) *Corpus {
	t.Helper()
	c := New(text.Pipeline{})
	descs := []string{
		"good condition, city car",
		"good condition and best bid welcome",
		"rusty but cheap",
		"good condition, best bid, NYC pickup",
		"best bid, low mileage, good condition",
		"good condition family car",
		"needs work",
		"good condition, NYC, one owner",
	}
	colors := []string{"red", "blue", "green", "red", "blue", "green", "red", "blue"}
	for i, d := range descs {
		name := fmt.Sprintf("doc-%d", i)
		if err := c.AddXML(name, carDoc(colors[i], d, 500+100*i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestSearchShardedMatchesUnsharded is the equivalence pin: for any
// shard count, a clean (non-degraded) scatter-gather returns exactly
// what the unsharded path returns — same answers, same order, same
// metadata.
func TestSearchShardedMatchesUnsharded(t *testing.T) {
	c := shardTestCorpus(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	prof := profile.MustParseProfile(`
kor k1: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor k2: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
`)
	snap := c.Snapshot()
	for _, k := range []int{2, 10} {
		want, err := snap.SearchContext(context.Background(), q, prof, k, plan.Push)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 8} {
			got, err := snap.SearchSharded(context.Background(), q, prof, k, plan.Push, ShardOptions{Shards: n})
			if err != nil {
				t.Fatalf("shards=%d k=%d: %v", n, k, err)
			}
			if got.Degraded || len(got.TimedOutShards) != 0 {
				t.Fatalf("shards=%d k=%d: degraded without a deadline: %+v", n, k, got)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("shards=%d k=%d: results diverge\n got %+v\nwant %+v", n, k, got.Results, want.Results)
			}
			if !reflect.DeepEqual(got.AppliedSRs, want.AppliedSRs) || got.DocsSearched != want.DocsSearched {
				t.Errorf("shards=%d k=%d: metadata diverges: %+v vs %+v", n, k, got.Response, *want)
			}
		}
	}
}

// TestFanoutSnippetRuneBoundary: a fan-out snippet is cut at a byte
// budget; a multi-byte rune straddling the cut must be dropped whole,
// not split into invalid UTF-8 (which json.Marshal would rewrite to
// U+FFFD). Three byte alignments of the same text guarantee at least
// one straddles whatever precedes it in the node's text content. Pure
// ASCII text keeps its exact 90-byte cut.
func TestFanoutSnippetRuneBoundary(t *testing.T) {
	if got, want := clip("x"+strings.Repeat("é", 60), 90), "x"+strings.Repeat("é", 44)+"…"; got != want {
		t.Errorf("clip across a rune = %q, want %q", got, want)
	}
	if got, want := clip(strings.Repeat("a", 100), 90), strings.Repeat("a", 90)+"…"; got != want {
		t.Errorf("ASCII clip moved: %q", got)
	}

	c := New(text.Pipeline{})
	for i, pad := range []string{"", "x", "xx"} {
		desc := "good condition " + pad + strings.Repeat("€", 40)
		if err := c.AddXML(fmt.Sprintf("doc-%d", i), carDoc("red", desc, 500)); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	want, err := snap.SearchContext(context.Background(), q, nil, 10, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != 3 {
		t.Fatalf("fixture should match all three documents, got %d", len(want.Results))
	}
	for _, r := range want.Results {
		if !utf8.ValidString(r.Snippet) || !strings.HasSuffix(r.Snippet, "…") {
			t.Errorf("%s: snippet %q is not a clean UTF-8 cut", r.DocName, r.Snippet)
		}
	}
	got, err := snap.SearchSharded(context.Background(), q, nil, 10, plan.Push, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("sharded snippets diverge\n got %+v\nwant %+v", got.Results, want.Results)
	}
}

// TestSearchShardedDegrades: a shard held past its carved deadline is
// dropped while the request is alive — partial results, Degraded set,
// the slow shard listed, and the healthy shards' answers exactly an
// unsharded search over their documents alone.
func TestSearchShardedDegrades(t *testing.T) {
	c := shardTestCorpus(t)
	q := tpq.MustParse(`//car[./description[. ftcontains "good condition"]]`)
	prof := profile.MustParseProfile(`
kor k1: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
kor k2: x.tag = car & y.tag = car & ftcontains(x, "NYC") => x < y
rank K,V,S
`)
	snap := c.Snapshot()

	const n = 3
	shards := ShardNames(snap.Names(), n)
	slow := -1
	for i, sh := range shards {
		if len(sh) > 0 {
			slow = i
			break
		}
	}
	if slow < 0 {
		t.Fatal("no non-empty shard to slow down")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	got, err := snap.SearchSharded(ctx, q, prof, 3, plan.Push, ShardOptions{
		Shards:       n,
		DeadlineFrac: 0.2, // shard budget ≈100ms, well under the sleep
		ShardStart: func(shard int) {
			if shard == slow {
				time.Sleep(250 * time.Millisecond)
			}
		},
	})
	if err != nil {
		t.Fatalf("degraded search failed outright: %v", err)
	}
	if !got.Degraded || len(got.TimedOutShards) != 1 || got.TimedOutShards[0] != slow {
		t.Fatalf("degradation report = %+v, want shard %d dropped", got, slow)
	}
	// Healthy shards' documents are all accounted for.
	wantDocs := 0
	for i, sh := range shards {
		if i != slow {
			wantDocs += len(sh)
		}
	}
	if got.DocsSearched != wantDocs {
		t.Errorf("DocsSearched = %d, want %d (healthy shards only)", got.DocsSearched, wantDocs)
	}
	alive := New(text.Pipeline{})
	for i, sh := range shards {
		for _, name := range sh {
			if e, _ := snap.Entry(name); i != slow {
				alive.Put(name, e.Document())
			}
		}
	}
	want, err := alive.SearchContext(context.Background(), q, prof, 3, plan.Push)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("degraded results differ from the surviving documents' search\n got %+v\nwant %+v", got.Results, want.Results)
	}
}

// TestSearchShardedParentDeathFails: when the request itself dies, the
// fan-out returns the parent's error — never a partial merge.
func TestSearchShardedParentDeathFails(t *testing.T) {
	c := shardTestCorpus(t)
	q := tpq.MustParse(`//car`)
	snap := c.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.SearchSharded(ctx, q, nil, 10, plan.Push, ShardOptions{Shards: 3}); err == nil {
		t.Fatal("canceled parent produced a response")
	}
}

func TestSearchShardedValidation(t *testing.T) {
	c := shardTestCorpus(t)
	snap := c.Snapshot()
	if _, err := snap.SearchSharded(context.Background(), nil, nil, 10, plan.Push, ShardOptions{Shards: 2}); err == nil {
		t.Error("nil query accepted")
	}
	q := tpq.MustParse(`//car`)
	if _, err := snap.SearchSharded(context.Background(), q, nil, -1, plan.Push, ShardOptions{Shards: 2}); err == nil {
		t.Error("negative k accepted")
	}
	// The ambiguity gate fires before any scatter, like SearchContext.
	ambig := profile.MustParseProfile(`
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.price < y.price => x < y
rank K,V,S
`)
	if _, err := snap.SearchSharded(context.Background(), q, ambig, 10, plan.Push, ShardOptions{Shards: 2}); err == nil {
		t.Error("ambiguous profile accepted")
	}
}
