//go:build race

package core

// raceEnabled reports a -race build. Race instrumentation slows memory
// accesses unevenly, so same-process speed ratios measure it rather than
// the code, and sync.Pool drops a random share of Puts by design.
const raceEnabled = true
