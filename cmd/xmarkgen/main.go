// Command xmarkgen writes an XMark-style auction-site document, the
// synthetic substrate of the paper's performance study (Section 7.2):
//
//	xmarkgen -size 1M -seed 42 -o xmark-1m.xml
//	xmarkgen -persons 500 -o small.xml
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/xmark"
)

func main() {
	sizeStr := flag.String("size", "", "target size, e.g. 101K, 5.7M, 10M")
	persons := flag.Int("persons", 0, "alternatively: exact number of persons")
	seed := flag.Int64("seed", 42, "generator seed")
	yes := flag.Float64("business-yes", 0.5, "fraction of persons with business=Yes")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	flag.Parse()

	cfg := xmark.Config{Seed: *seed, PersonBusinessYes: *yes}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	switch {
	case *persons > 0:
		d := xmark.Generate(cfg, *persons)
		fail(d.WriteXML(bw, " "))
	case *sizeStr != "":
		bytes, err := xmark.ParseSize(*sizeStr)
		if err != nil {
			fail(err)
		}
		d := xmark.GenerateSized(cfg, bytes)
		fail(d.WriteXML(bw, " "))
	default:
		fmt.Fprintln(os.Stderr, "xmarkgen: need -size or -persons")
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmarkgen:", err)
		os.Exit(1)
	}
}
