//go:build !race

package pqueue

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
