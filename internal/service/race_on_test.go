//go:build race

package service

// raceEnabled reports whether the race detector is active; allocation
// and heap assertions are skipped under it.
const raceEnabled = true
