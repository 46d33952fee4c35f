//go:build race

package cspsat_test

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops pooled items at random, so allocation counts of pooled
// paths are not repeatable.
const raceEnabled = true
