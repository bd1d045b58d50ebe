package obs

import (
	"sync"
	"time"
)

// Window is one fixed-interval slice of a run: the completions and the
// latency histogram of everything that finished in
// [Index·interval, (Index+1)·interval). Completed includes warmup
// completions, Warmup counts the subset kept out of the histogram, and
// Resumed counts PSK resumptions among all completions.
type Window struct {
	// Index is the absolute window number since the run's start.
	Index uint64

	Completed, Warmup, Resumed uint64

	// Hist holds the window's post-warmup successful handshake latencies in
	// the same log-bucketed histogram the run total uses.
	Hist Histogram
}

// Timeline accumulates Windows at a fixed interval. Callers pass each
// event's offset from the run's start. Windows are sparse: only intervals
// that saw an event exist, so memory is O(active windows), independent of
// event count.
type Timeline struct {
	mu       sync.Mutex
	interval time.Duration
	windows  map[uint64]*Window
}

// NewTimeline returns an empty timeline with the given window interval
// (values <= 0 default to one second).
func NewTimeline(interval time.Duration) *Timeline {
	if interval <= 0 {
		interval = time.Second
	}
	return &Timeline{interval: interval, windows: make(map[uint64]*Window)}
}

// RecordComplete counts one successful handshake finishing at offset at
// with latency lat. warmup marks completions whose scheduled arrival fell
// inside the warmup period: they count as Completed (and Warmup) but stay
// out of the histogram.
func (t *Timeline) RecordComplete(at, lat time.Duration, resumed, warmup bool) {
	if at < 0 {
		at = 0
	}
	idx := uint64(at / t.interval)
	t.mu.Lock()
	w := t.windows[idx]
	if w == nil {
		w = &Window{Index: idx}
		t.windows[idx] = w
	}
	w.Completed++
	if resumed {
		w.Resumed++
	}
	if warmup {
		w.Warmup++
	} else {
		w.Hist.Record(lat)
	}
	t.mu.Unlock()
}

// Totals sums every window into one aggregate (Index 0): the end-of-run
// counters and full-run histogram a timeline implies.
func (t *Timeline) Totals() Window {
	var total Window
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.windows {
		total.Completed += w.Completed
		total.Warmup += w.Warmup
		total.Resumed += w.Resumed
		total.Hist.Merge(&w.Hist)
	}
	return total
}
