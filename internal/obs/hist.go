package obs

import (
	"math"
	"time"
)

// Histogram is a mergeable latency histogram with logarithmic buckets:
// bucket i spans [histBase·histGrowth^i, histBase·histGrowth^(i+1)), giving
// a constant ~4% relative error from 1 µs up past an hour in a few hundred
// counters. Per-worker histograms record without locks and merge into the
// run total, so the hot path of a client pool never contends on stats.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histBase    = float64(time.Microsecond)
	histGrowth  = 1.04
	histBuckets = 600 // covers up to histBase·1.04^600 ≈ 4.7 hours
)

// logGrowth is precomputed for bucketOf.
var logGrowth = math.Log(histGrowth)

// bucketOf maps a latency to its bucket index.
func bucketOf(d time.Duration) int {
	if d < time.Duration(histBase) {
		return 0
	}
	i := int(math.Log(float64(d)/histBase) / logGrowth)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketValue is the representative latency of bucket i (the geometric
// midpoint of its bounds).
func bucketValue(i int) time.Duration {
	return time.Duration(histBase * math.Pow(histGrowth, float64(i)+0.5))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the exact arithmetic mean (the sum is tracked exactly; only
// quantiles are subject to bucket resolution).
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Min and Max return the exact observed extremes.
func (h *Histogram) Min() time.Duration { return h.min }
func (h *Histogram) Max() time.Duration { return h.max }

// CumulativeLE returns the number of observations <= d, resolved at bucket
// granularity: a bucket counts as <= d when its representative value does.
// This is the cumulative view a Prometheus histogram_bucket{le=...} series
// needs; the ~4% bucket error applies at the boundary only.
func (h *Histogram) CumulativeLE(d time.Duration) uint64 {
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		v := bucketValue(i)
		// The edge buckets absorb everything below histBase and beyond the
		// last bound; represent them by the observed extremes.
		if i == 0 && h.min < time.Duration(histBase) {
			v = h.min
		}
		if i == histBuckets-1 {
			v = h.max
		}
		if v <= d {
			cum += c
		}
	}
	return cum
}

// Quantile returns the q-quantile under the same nearest-rank definition as
// stats.Quantile (the ceil(q·n)-th smallest observation), resolved to its
// bucket's representative value and clamped to the observed extremes so
// p0/p100 stay exact.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// The edge buckets absorb everything below histBase and
			// beyond the last bound; their geometric midpoints are
			// meaningless, so answer with the exact observed extreme.
			if i == 0 && h.min < time.Duration(histBase) {
				return h.min
			}
			if i == histBuckets-1 {
				return h.max
			}
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
