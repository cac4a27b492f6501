//go:build race

package core_test

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts of pooled paths are not
// meaningful there.
const raceEnabled = true
