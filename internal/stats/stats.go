// Package stats provides the summary statistics used by the measurement
// harness (the paper reports medians over 60-second campaigns).
package stats

import (
	"math"
	"sort"
	"time"
)

// Median returns the median of xs (0 for empty input): the middle element
// for an odd count, the integer-divided mean of the two middles otherwise.
func Median[T ~int | ~int64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T{}, xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs under the
// nearest-rank definition: the smallest element whose cumulative relative
// frequency is >= q, i.e. the ceil(q*n)-th smallest. q = 0 maps to the
// minimum and q = 1 to the maximum; empty input yields 0. Nearest-rank
// always returns an element of the sample (no interpolation), matching the
// paper's percentile tooling.
func Quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration{}, xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s)))) // 1-indexed nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Quantiles returns the nearest-rank quantiles for each q in qs, sorting
// the sample once (each Quantile call sorts a private copy, which a
// p50/p95/p99 report would otherwise pay three times).
func Quantiles(xs []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := append([]time.Duration{}, xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(len(s))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(s) {
			rank = len(s)
		}
		out[i] = s[rank-1]
	}
	return out
}

// Mean returns the arithmetic mean.
func Mean(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

// MinMax returns the extremes.
func MinMax(xs []time.Duration) (min, max time.Duration) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
