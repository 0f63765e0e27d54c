// Command inexgen writes the synthetic INEX-style collection of one of
// the paper's 8 topics (Section 7.1), or the topic's profile or
// assessments, for inspection or external experimentation:
//
//	inexgen -topic 131 -o collection.xml
//	inexgen -topic 131 -what profile
//	inexgen -list
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/inex"
)

func main() {
	topicID := flag.Int("topic", 131, "topic id (130, 131, 132, 140, 141, 142, 145, 151)")
	seed := flag.Int64("seed", 42, "generator seed")
	what := flag.String("what", "collection", "output: collection | profile | assessments")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	list := flag.Bool("list", false, "list the topics and exit")
	flag.Parse()

	if *list {
		for _, spec := range inex.Topics() {
			fmt.Printf("%d  %-45s  pool=%d  phrase=%q\n",
				spec.ID, spec.Title, spec.Assessed(), spec.Phrase)
		}
		return
	}

	var spec inex.Spec
	found := false
	for _, s := range inex.Topics() {
		if s.ID == *topicID {
			spec, found = s, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "inexgen: unknown topic %d (use -list)\n", *topicID)
		os.Exit(2)
	}

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

	switch *what {
	case "collection":
		doc, _ := inex.BuildCollection(spec, *seed)
		fail(doc.WriteXML(bw, "  "))
	case "profile":
		for _, tp := range spec.Types {
			prof := inex.TopicProfile(spec, tp.Tag)
			fmt.Fprintf(bw, "# element type %s\n", tp.Tag)
			for _, sr := range prof.SRs {
				fmt.Fprintf(bw, "sr %s\n", sr)
			}
			for _, k := range prof.KORs {
				fmt.Fprintf(bw, "kor %s\n", k)
			}
			fmt.Fprintln(bw)
		}
	case "assessments":
		doc, graded := inex.BuildCollectionGraded(spec, *seed)
		for _, a := range graded {
			fmt.Fprintf(bw, "node=%d path=%s relevance=%d coverage=%c\n",
				a.Node, doc.Path(a.Node), a.Relevance, a.Coverage)
		}
	default:
		fmt.Fprintf(os.Stderr, "inexgen: unknown -what %q\n", *what)
		os.Exit(2)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "inexgen:", err)
		os.Exit(1)
	}
}
