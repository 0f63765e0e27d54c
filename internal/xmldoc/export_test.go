package xmldoc

// Exported for the differential tests in package xmldoc_test, which
// need the index and the XMark generator (both import xmldoc).
var (
	OracleParse  = oracleParse
	SameDocument = sameDocument
	ParseSeeds   = parseSeeds
)
