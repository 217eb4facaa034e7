//go:build !race

package serve

// raceEnabled lets allocation-regression tests skip under the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = false
