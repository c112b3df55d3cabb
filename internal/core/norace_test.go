//go:build !race

package core_test

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation tests skip under it.
const raceEnabled = false
