//go:build race

package engine

// raceEnabled reports that the race detector is active; allocation-count
// assertions skip under its instrumentation.
const raceEnabled = true
