//go:build !race

package rtree

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
