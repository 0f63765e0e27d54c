//go:build race

package index

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
