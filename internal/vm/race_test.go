//go:build race

package vm

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation tests skip under it.
const raceEnabled = true
