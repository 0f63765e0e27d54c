// End-to-end test of the vettool protocol: build the real
// pimento-analyze binary, point `go vet -vettool` at a known-bad
// module, and assert the violations come back through cmd/go with the
// right analyzer names and a failing exit status. This is the test
// that keeps the -V=full / -flags / vet.cfg plumbing honest — the unit
// tests all go through the in-process driver and would not notice a
// broken protocol handshake.
package analyze_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the vettool once per test process.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pimento-analyze")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pimento-analyze")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pimento-analyze: %v\n%s", err, out)
	}
	return bin
}

func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)

	t.Run("version", func(t *testing.T) {
		out, err := exec.Command(bin, "-V=full").Output()
		if err != nil {
			t.Fatalf("-V=full: %v", err)
		}
		// cmd/go parses this as "<name> version <id>" and uses the line
		// as the tool's cache key; id must not be "devel".
		f := strings.Fields(strings.TrimSpace(string(out)))
		if len(f) != 3 || f[1] != "version" || f[2] == "devel" {
			t.Fatalf("-V=full output %q does not satisfy the toolID contract", out)
		}
	})

	t.Run("flags", func(t *testing.T) {
		out, err := exec.Command(bin, "-flags").Output()
		if err != nil {
			t.Fatalf("-flags: %v", err)
		}
		if strings.TrimSpace(string(out)) != "[]" {
			t.Fatalf("-flags output %q, want the empty JSON flag list", out)
		}
	})

	t.Run("govet", func(t *testing.T) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = filepath.Join("testdata", "badmod")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("go vet -vettool passed over the known-bad module:\n%s", out)
		}
		for _, wantStr := range []string{
			"[ctxbg]", "context.Background",
			"[budgetedgo]", "unbudgeted goroutine spawn",
			"[nowfree]", "non-deterministic",
		} {
			if !strings.Contains(string(out), wantStr) {
				t.Errorf("go vet output missing %q:\n%s", wantStr, out)
			}
		}
	})

	t.Run("usage", func(t *testing.T) {
		// Without a vet.cfg the tool has nothing to check: it is not a
		// package loader of its own.
		out, err := exec.Command(bin, "./...").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "go vet -vettool") {
			t.Fatalf("run without a vet.cfg: err=%v, output %q (want the usage line, exit 2)", err, out)
		}
	})

	t.Run("clean-tree-gate", func(t *testing.T) {
		// The repository itself must be finding-free: this is the same
		// zero-finding gate `make analyze` enforces, kept here so `go test`
		// inside tools/analyze catches a regression without the Makefile.
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			t.Fatal(err)
		}
		if _, statErr := os.Stat(filepath.Join(root, "go.mod")); statErr != nil {
			t.Skipf("repository root not found at %s", root)
		}
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go vet -vettool over the repository: %v\n%s", err, out)
		}
	})
}
