//go:build !race

package serving

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
