//go:build race

package graph

// raceEnabled reports whether the race detector is active; allocation
// assertions are skipped under -race, whose instrumentation perturbs
// allocation counts.
const raceEnabled = true
