//go:build race

package cbb

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
