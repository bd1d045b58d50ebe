//go:build race

package pqtls_test

// raceEnabled reports whether the race detector is instrumenting this
// build. Instrumentation changes inlining and escape analysis, so
// allocation-count assertions only hold in normal builds.
const raceEnabled = true
