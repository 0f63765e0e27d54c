//go:build !race

package plan

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
