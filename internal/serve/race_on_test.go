//go:build race

package serve

// raceEnabled reports a -race build, where sync.Pool drops a random
// share of Puts by design, so pooled paths cannot be allocation-free.
const raceEnabled = true
