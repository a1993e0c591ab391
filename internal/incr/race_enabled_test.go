//go:build race

package incr_test

// raceEnabled reports whether the race detector instruments this build;
// the 2400-file session oracle skips under it (it runs no more
// concurrency than the small oracles, at about 20 times their cost).
const raceEnabled = true
