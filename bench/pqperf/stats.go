//go:build linux

package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder are the percentiles a report may quote above the median.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond it; a percentile with fewer is one or two
// outliers, not a tail. It returns 0.5 when even p75 is unsupported.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-6 { // 100 × (1 − 0.9) is 9.999… in floating point
			return p
		}
	}
	return 0.5
}

// quartiles returns Q1, Q2, Q3 with the method of Python's
// statistics.quantiles(values, n=4) (exclusive), so the A/A table reads the
// same spread the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func meanUs(ds []time.Duration) float64 { return mean(durationsMs(ds)) * 1000 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
