package registry

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/profile"
)

const cleanProfile = `
sr p2 priority 1: if pc(car, description) & ftcontains(description, "good condition") then add ftcontains(description, "american")
kor w4: x.tag = car & y.tag = car & ftcontains(x, "best bid") => x < y
rank K,V,S
`

// cleanProfileSpaced is cleanProfile with cosmetic whitespace changes
// outside quotes: same parse, same canonical serialization, same
// fingerprint.
const cleanProfileSpaced = `
sr  p2  priority 1:  if pc(car, description)  &  ftcontains(description, "good condition")  then add ftcontains(description, "american")

kor  w4:  x.tag = car  &  y.tag = car  &  ftcontains(x, "best bid")  =>  x < y
rank K, V, S
`

const otherProfile = `
kor w5: x.tag = car & y.tag = car & ftcontains(x, "low mileage") => x < y
rank V,K,S
`

const ambiguousProfile = `
vor w1: x.tag = car & y.tag = car & x.color = "red" & y.color != "red" => x < y
vor w2: x.tag = car & y.tag = car & x.mileage < y.mileage => x < y
rank K,V,S
`

func TestPutGetDeleteRoundTrip(t *testing.T) {
	r := New(nil)
	st, created, err := r.Put(context.Background(), "alice", cleanProfile)
	if err != nil || !created {
		t.Fatalf("Put = %v created=%v", err, created)
	}
	want := engine.ProfileFingerprint(profile.MustParseProfile(cleanProfile))
	if st.Fingerprint() != want {
		t.Errorf("fingerprint = %q, want %q", st.Fingerprint(), want)
	}
	if st.Source() != cleanProfile || st.Profile() == nil {
		t.Errorf("stored body mismatch: source=%q profile=%v", st.Source(), st.Profile())
	}

	got, ok := r.Get("alice")
	if !ok || got != st {
		t.Fatalf("Get = %v, %v; want the stored handle", got, ok)
	}
	if _, ok := r.Get("bob"); ok {
		t.Error("Get of unregistered name succeeded")
	}

	del, ok := r.Delete("alice")
	if !ok || del != st {
		t.Fatalf("Delete = %v, %v", del, ok)
	}
	if _, ok := r.Delete("alice"); ok {
		t.Error("second Delete succeeded")
	}
	if r.Len() != 0 || r.Distinct() != 0 {
		t.Errorf("after delete: Len=%d Distinct=%d, want 0/0", r.Len(), r.Distinct())
	}
}

func TestFingerprintDedup(t *testing.T) {
	r := New(nil)
	ctx := context.Background()
	a, _, _ := r.Put(ctx, "alice", cleanProfile)
	b, _, _ := r.Put(ctx, "bob", cleanProfile)
	// Cosmetic whitespace differences canonicalize away: same body.
	c, _, _ := r.Put(ctx, "carol", cleanProfileSpaced)
	if a != b || a != c {
		t.Fatal("identical bodies did not dedup to one Stored")
	}
	if a.Shared() != 3 {
		t.Errorf("Shared = %d, want 3", a.Shared())
	}
	if r.Len() != 3 || r.Distinct() != 1 {
		t.Errorf("Len=%d Distinct=%d, want 3/1", r.Len(), r.Distinct())
	}
	if s := r.Stats(); s.Names != 3 || s.Distinct != 1 {
		t.Errorf("Stats = %+v", s)
	}

	r.Delete("bob")
	if a.Shared() != 2 {
		t.Errorf("Shared after delete = %d, want 2", a.Shared())
	}
	r.Delete("alice")
	r.Delete("carol")
	if r.Distinct() != 0 {
		t.Errorf("Distinct after last unbind = %d, want 0 (fingerprint retired)", r.Distinct())
	}
}

func TestVetRunsOncePerDistinctBody(t *testing.T) {
	var vets atomic.Int64
	r := New(func(_ context.Context, p *profile.Profile) ([]analysis.Diagnostic, error) {
		vets.Add(1)
		return analysis.Vet(p, nil), nil
	})
	ctx := context.Background()
	for _, name := range []string{"a", "b", "c"} {
		if _, _, err := r.Put(ctx, name, cleanProfile); err != nil {
			t.Fatal(err)
		}
	}
	if vets.Load() != 1 {
		t.Errorf("vet ran %d times for one body over 3 names, want 1", vets.Load())
	}
	if _, _, err := r.Put(ctx, "d", otherProfile); err != nil {
		t.Fatal(err)
	}
	if vets.Load() != 2 {
		t.Errorf("vet ran %d times after a second distinct body, want 2", vets.Load())
	}
}

func TestRebindRepointsAndReleases(t *testing.T) {
	r := New(nil)
	ctx := context.Background()
	first, _, _ := r.Put(ctx, "alice", cleanProfile)
	second, created, err := r.Put(ctx, "alice", otherProfile)
	if err != nil || created {
		t.Fatalf("rebind Put = %v created=%v (want created=false)", err, created)
	}
	if second == first {
		t.Fatal("rebind kept the old body")
	}
	if first.Shared() != 0 {
		t.Errorf("old body Shared = %d, want 0", first.Shared())
	}
	if r.Len() != 1 || r.Distinct() != 1 {
		t.Errorf("Len=%d Distinct=%d, want 1/1", r.Len(), r.Distinct())
	}
	// Re-registering the identical body is a no-op.
	again, created, err := r.Put(ctx, "alice", otherProfile)
	if err != nil || created || again != second {
		t.Fatalf("idempotent re-put = %v created=%v same=%v", err, created, again == second)
	}
}

func TestPutRejections(t *testing.T) {
	r := New(nil)
	ctx := context.Background()
	cases := []struct {
		name      string
		profName  string
		source    string
		wantDiags bool // Rejection carries diagnostics (vs a plain error)
	}{
		{"empty name", "", cleanProfile, false},
		{"star name", "*", cleanProfile, false},
		{"slash name", "a/b", cleanProfile, false},
		{"malformed source", "ok", "sr broken", false},
		{"duplicate rule id", "ok", "sr a: if pc(car, d) then add ftcontains(d, \"x\")\nsr a: if pc(car, d) then remove ftcontains(d, \"x\")", true},
		{"ambiguous vors", "ok", ambiguousProfile, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := r.Put(ctx, tc.profName, tc.source)
			var rej *Rejection
			if !errors.As(err, &rej) {
				t.Fatalf("err = %v, want *Rejection", err)
			}
			if rej.Error() == "" {
				t.Error("empty rejection message")
			}
			if tc.wantDiags {
				if analysis.ErrorCount(rej.Diagnostics) == 0 {
					t.Errorf("want error-severity diagnostics, got %+v", rej.Diagnostics)
				}
			} else if rej.Err == nil {
				t.Errorf("want plain error, got diagnostics %+v", rej.Diagnostics)
			}
			if r.Len() != 0 || r.Distinct() != 0 {
				t.Errorf("rejection changed state: Len=%d Distinct=%d", r.Len(), r.Distinct())
			}
		})
	}
}

func TestVetterErrorPropagates(t *testing.T) {
	sentinel := errors.New("ctx expired mid-vet")
	r := New(func(context.Context, *profile.Profile) ([]analysis.Diagnostic, error) {
		return nil, sentinel
	})
	_, _, err := r.Put(context.Background(), "alice", cleanProfile)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the vetter's error verbatim", err)
	}
	var rej *Rejection
	if errors.As(err, &rej) {
		t.Error("vetter error must not be wrapped as a Rejection")
	}
}

func TestListSorted(t *testing.T) {
	r := New(nil)
	ctx := context.Background()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Put(ctx, name, cleanProfile)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("List len = %d", len(list))
	}
	for i, want := range []string{"alpha", "mid", "zeta"} {
		if list[i].Name != want {
			t.Errorf("List[%d] = %q, want %q", i, list[i].Name, want)
		}
		if list[i].Fingerprint == "" {
			t.Errorf("List[%d] missing fingerprint", i)
		}
	}
}

// TestConcurrentPutsShareOneBody races N goroutines registering the
// same body under distinct names: afterwards exactly one Stored exists
// and every name resolves to it.
func TestConcurrentPutsShareOneBody(t *testing.T) {
	r := New(nil)
	ctx := context.Background()
	const n = 16
	var wg sync.WaitGroup
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = string(rune('a' + i))
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if _, _, err := r.Put(ctx, name, cleanProfile); err != nil {
				t.Error(err)
			}
		}(names[i])
	}
	wg.Wait()
	if r.Distinct() != 1 || r.Len() != n {
		t.Fatalf("Len=%d Distinct=%d, want %d/1", r.Len(), r.Distinct(), n)
	}
	first, _ := r.Get(names[0])
	for _, name := range names[1:] {
		st, ok := r.Get(name)
		if !ok || st != first {
			t.Fatalf("name %q does not share the stored body", name)
		}
	}
	if first.Shared() != n {
		t.Errorf("Shared = %d, want %d", first.Shared(), n)
	}
}
