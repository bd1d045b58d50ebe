//go:build race

package gf2x

// raceEnabled reports whether the race detector is instrumenting this
// build. Under it sync.Pool drops a random share of Puts on purpose, so
// pooled-scratch zero-alloc assertions only hold in normal builds.
const raceEnabled = true
