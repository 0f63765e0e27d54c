package xmldoc

// Exported for the differential tests in package xmldoc_test, which
// need the index and the data generators (all import xmldoc).
var (
	OracleParse  = oracleParse
	OracleLoad   = oracleLoad
	SameDocument = sameDocument
	ParseSeeds   = parseSeeds
)
