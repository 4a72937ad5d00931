//go:build !race

package afl_test

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops a random share of Puts.
const raceEnabled = false
