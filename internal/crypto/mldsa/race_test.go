//go:build race

package mldsa

// raceEnabled reports whether the race detector is instrumenting this
// build. Instrumentation changes inlining and escape analysis, so
// zero-alloc assertions only hold in normal builds.
const raceEnabled = true
