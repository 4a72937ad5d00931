//go:build race

package marketd

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation adds allocations of its own.
const raceEnabled = true
