package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestVetExampleProfiles vets every shipped example profile through the
// CLI's exit-status contract: *.bad.profile documents a known-broken
// input and must be rejected (1); every other profile must vet clean (0).
func TestVetExampleProfiles(t *testing.T) {
	profiles, err := filepath.Glob(filepath.Join("..", "..", "examples", "profiles", "*.profile"))
	if err != nil {
		t.Fatal(err)
	}
	var bad, good int
	for _, p := range profiles {
		want := 0
		if strings.HasSuffix(p, ".bad.profile") {
			want = 1
			bad++
		} else {
			good++
		}
		if got := runVet([]string{"-profile", p}); got != want {
			t.Errorf("pimento vet -profile %s: exit %d, want %d", p, got, want)
		}
	}
	if bad == 0 || good == 0 {
		t.Fatalf("examples/profiles holds %d bad and %d clean profiles; want at least one of each", bad, good)
	}
}
