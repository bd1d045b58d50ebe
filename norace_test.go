//go:build !race

package pqtls_test

const raceEnabled = false
