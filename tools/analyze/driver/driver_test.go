package driver_test

import (
	"testing"

	"repro/tools/analyze/analysistest"
	"repro/tools/analyze/driver"
)

// TestAnnotationHygiene exercises the synthetic pimentoallow findings:
// malformed annotations and stale suppressions are diagnostics too.
func TestAnnotationHygiene(t *testing.T) {
	analysistest.Run(t, "../testdata", "allowcase")
}

// TestSuiteShape pins the analyzer roster: adding an analyzer must be
// a conscious act (update this list, DESIGN.md §16 and the README).
func TestSuiteShape(t *testing.T) {
	want := []string{
		"ctxbg", "snapshotonce", "cancelprobe", "metriclabels",
		"budgetedgo", "scratchrelease", "nowfree",
	}
	got := driver.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
		if !driver.KnownNames()[a.Name] {
			t.Errorf("analyzer %q missing from KnownNames", a.Name)
		}
	}
	if !driver.KnownNames()[driver.AllowCheckName] {
		t.Errorf("KnownNames missing the %s hygiene check", driver.AllowCheckName)
	}
}
