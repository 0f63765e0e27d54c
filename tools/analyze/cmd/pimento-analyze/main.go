// Command pimento-analyze is the repository's invariant checker: a
// multichecker over the analyzers in tools/analyze/passes, run by the
// go command's vet driver.
//
//	go vet -vettool=$(pimento-analyze) ./...
//
// It speaks only the -vettool protocol: -V=full, -flags, and one
// vet.cfg path per package. `make analyze` is the zero-finding gate and
// the fix-list; `git grep -n '//pimento:allow'` lists the suppressions.
package main

import (
	"fmt"
	"os"
	"strings"

	"repro/tools/analyze/unit"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		// go vet probes the tool's identity before first use.
		if a == "-V=full" || a == "-V" {
			unit.PrintVersion(os.Stdout)
			return
		}
		// ...and asks for its flags as JSON (none beyond the protocol's).
		if a == "-flags" {
			fmt.Println("[]")
			return
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(unit.Run(args[n-1], os.Stderr))
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which pimento-analyze) ./...")
	os.Exit(2)
}
