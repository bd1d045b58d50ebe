//go:build !race

package gf2x

const raceEnabled = false
