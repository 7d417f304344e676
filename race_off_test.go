//go:build !race

package distjoin

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
