//go:build race

package core_test

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops a random share of Puts.
const raceEnabled = true
