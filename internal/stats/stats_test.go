package stats

import (
	"testing"
	"testing/quick"
	"time"
)

func TestMedian(t *testing.T) {
	t.Parallel()
	if Median([]time.Duration(nil)) != 0 {
		t.Error("median of empty input not 0")
	}
	if m := Median([]time.Duration{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := Median([]time.Duration{4, 1, 3, 2}); m != 2 {
		t.Errorf("median even = %v, want 2 (midpoint of 2,3 = 2.5 truncated)", m)
	}
	if m := Median([]int{4, 1, 3, 2}); m != 2 {
		t.Errorf("median of ints = %d, want 2", m)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	t.Parallel()
	xs := []time.Duration{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median mutated its input")
	}
}

func TestQuantile(t *testing.T) {
	t.Parallel()
	xs := []time.Duration{10, 20, 30, 40, 50}
	if q := Quantile(xs, 0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 50 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 30 {
		t.Errorf("q0.5 = %v", q)
	}
}

// Nearest-rank pins: the ceil(q*n)-th smallest element, per the paper's
// percentile tooling, for n=1 and even/odd n.
func TestQuantileNearestRank(t *testing.T) {
	t.Parallel()
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(i + 1) // 1..100, shuffled below
	}
	hundred[3], hundred[96] = hundred[96], hundred[3]
	cases := []struct {
		name string
		xs   []time.Duration
		q    float64
		want time.Duration
	}{
		{"n=1 p50", []time.Duration{7}, 0.5, 7},
		{"n=1 p95", []time.Duration{7}, 0.95, 7},
		{"n=1 p99", []time.Duration{7}, 0.99, 7},
		{"n=1 q0", []time.Duration{7}, 0, 7},
		{"n=1 q1", []time.Duration{7}, 1, 7},
		// Even n: rank(p50) = ceil(2.0) = 2, not the 3rd element a
		// rounded (n-1)-interpolation index would pick.
		{"n=4 p50", []time.Duration{40, 10, 30, 20}, 0.5, 20},
		{"n=4 p95", []time.Duration{40, 10, 30, 20}, 0.95, 40},
		{"n=4 p99", []time.Duration{40, 10, 30, 20}, 0.99, 40},
		// Odd n: rank(p50) = ceil(2.5) = 3.
		{"n=5 p50", []time.Duration{50, 10, 40, 20, 30}, 0.5, 30},
		{"n=5 p95", []time.Duration{50, 10, 40, 20, 30}, 0.95, 50},
		{"n=5 p99", []time.Duration{50, 10, 40, 20, 30}, 0.99, 50},
		// Round n: p95 and p99 land exactly on ranks 95 and 99.
		{"n=100 p50", hundred, 0.5, 50},
		{"n=100 p95", hundred, 0.95, 95},
		{"n=100 p99", hundred, 0.99, 99},
	}
	for _, tc := range cases {
		if got := Quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("%s: Quantile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Property: a nearest-rank quantile is always an element of the sample,
// and at least a q-fraction of elements are <= it.
func TestQuickQuantileProperties(t *testing.T) {
	t.Parallel()
	f := func(raw []int16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		xs := make([]time.Duration, len(raw))
		for i, r := range raw {
			xs[i] = time.Duration(r)
		}
		v := Quantile(xs, q)
		member := false
		atOrBelow := 0
		for _, x := range xs {
			if x == v {
				member = true
			}
			if x <= v {
				atOrBelow++
			}
		}
		return member && float64(atOrBelow) >= q*float64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMinMax(t *testing.T) {
	t.Parallel()
	xs := []time.Duration{10, 20, 60}
	if m := Mean(xs); m != 30 {
		t.Errorf("mean = %v", m)
	}
	lo, hi := MinMax(xs)
	if lo != 10 || hi != 60 {
		t.Errorf("minmax = %v %v", lo, hi)
	}
	if m := Mean(nil); m != 0 {
		t.Error("mean of empty not 0")
	}
}

// Property: the median is bounded by the extremes and at least half the
// elements are <= it.
func TestQuickMedianProperties(t *testing.T) {
	t.Parallel()
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]time.Duration, len(raw))
		for i, r := range raw {
			xs[i] = time.Duration(r)
		}
		m := Median(xs)
		lo, hi := MinMax(xs)
		if m < lo || m > hi {
			return false
		}
		below := 0
		for _, x := range xs {
			if x <= m {
				below++
			}
		}
		return below*2 >= len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
