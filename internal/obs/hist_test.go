package obs

import (
	"testing"
	"time"

	"pqtls/internal/stats"
)

// relClose reports whether got is within 5% of want (one bucket of the
// ~4%-resolution histogram plus rounding).
func relClose(got, want time.Duration) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return float64(d) <= 0.05*float64(want)
}

// TestHistogramQuantileTable checks the log-bucketed quantiles against the
// exact nearest-rank definition in internal/stats on a spread of shapes.
func TestHistogramQuantileTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []time.Duration
	}{
		{"uniform-ms", ramp(1*time.Millisecond, 1*time.Millisecond, 100)},
		{"microseconds", ramp(5*time.Microsecond, 3*time.Microsecond, 64)},
		{"heavy-tail", append(ramp(1*time.Millisecond, 10*time.Microsecond, 99), 2*time.Second)},
		{"single", []time.Duration{42 * time.Millisecond}},
	}
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	for _, tc := range cases {
		var h Histogram
		for _, x := range tc.xs {
			h.Record(x)
		}
		if h.Count() != uint64(len(tc.xs)) {
			t.Fatalf("%s: count %d, want %d", tc.name, h.Count(), len(tc.xs))
		}
		for _, q := range qs {
			got, want := h.Quantile(q), stats.Quantile(tc.xs, q)
			if !relClose(got, want) {
				t.Errorf("%s: q%.2f = %v, want within 5%% of %v", tc.name, q, got, want)
			}
		}
		if mn, mx := stats.MinMax(tc.xs); h.Min() != mn || h.Max() != mx {
			t.Errorf("%s: min/max %v/%v, want exact %v/%v", tc.name, h.Min(), h.Max(), mn, mx)
		}
		if got, want := h.Mean(), stats.Mean(tc.xs); got != want {
			t.Errorf("%s: mean %v, want exact %v", tc.name, got, want)
		}
	}
}

// TestHistogramMerge checks that merging shards is equivalent to recording
// everything into one histogram — the property the per-worker lock-free
// recording depends on.
func TestHistogramMerge(t *testing.T) {
	xs := ramp(100*time.Microsecond, 77*time.Microsecond, 300)
	var whole, a, b Histogram
	for i, x := range xs {
		whole.Record(x)
		if i%2 == 0 {
			a.Record(x)
		} else {
			b.Record(x)
		}
	}
	var merged Histogram
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(nil)          // no-op
	merged.Merge(&Histogram{}) // empty no-op
	if merged.Count() != whole.Count() || merged.Mean() != whole.Mean() ||
		merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatal("merged summary differs from whole-sample summary")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Errorf("q%.2f: merged %v, whole %v", q, got, want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

// TestHistogramExtremes exercises the clamp buckets: sub-microsecond and
// multi-hour observations land in the edge buckets but min/max stay exact.
func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(10 * time.Nanosecond)
	h.Record(6 * time.Hour)
	if h.Min() != 10*time.Nanosecond || h.Max() != 6*time.Hour {
		t.Fatalf("extremes: min %v max %v", h.Min(), h.Max())
	}
	if got := h.Quantile(0); got != 10*time.Nanosecond {
		t.Errorf("p0 = %v, want clamped to observed min", got)
	}
	if got := h.Quantile(1); got != 6*time.Hour {
		t.Errorf("p100 = %v, want clamped to observed max", got)
	}
}

// ramp returns n durations start, start+step, start+2·step, ...
func ramp(start, step time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(i)*step
	}
	return out
}
