//go:build race

package storage

// raceEnabled reports whether the race detector is active. Its
// instrumentation may allocate on its own, so allocation-count
// assertions are skipped under -race.
const raceEnabled = true
