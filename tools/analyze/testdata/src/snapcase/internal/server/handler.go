// Fixture for the snapshotonce analyzer: handlers in a serving package
// reading corpus state.
package server

import "snapcase/internal/corpus"

// handleBad loads twice: a mutation can land between the two reads and
// the values straddle generations.
func handleBad(c *corpus.Corpus) int {
	n := c.Len()
	g := c.Snapshot().Generation() // want snapshotonce "loads the corpus snapshot again"
	return n + int(g)
}

// handleClean loads once and threads the snapshot into its helper.
func handleClean(c *corpus.Corpus) int {
	s := c.Snapshot()
	return s.Len() + helper(s)
}

func helper(s *corpus.Snapshot) int { return s.Len() }

// handleAllowed documents why generation skew is acceptable here.
func handleAllowed(c *corpus.Corpus) uint64 {
	n := c.Len()
	//pimento:allow snapshotonce fixture: advisory stats endpoint, generation skew between the two reads is harmless
	g := c.Snapshot().Generation()
	return g + uint64(n)
}
