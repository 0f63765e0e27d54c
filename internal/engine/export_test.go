package engine

// Fixtures for the external tests (gate_test.go is package engine_test
// because it imports internal/corpus, which imports this package).
const (
	Fig1XML       = fig1XML
	PaperQ        = paperQ
	AmbiguousVORs = ambiguousVORs
	CyclicSRs     = cyclicSRs
)
