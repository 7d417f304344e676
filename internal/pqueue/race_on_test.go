//go:build race

package pqueue

// raceEnabled reports whether the race detector is active. It makes
// sync.Pool drop and randomize reuse, so the allocation pins that
// depend on pool hits are skipped under -race.
const raceEnabled = true
