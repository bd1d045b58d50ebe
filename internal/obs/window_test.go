package obs

import (
	"testing"
	"time"
)

func TestTimelineTotals(t *testing.T) {
	t.Parallel()
	tl := NewTimeline(100 * time.Millisecond)
	tl.RecordComplete(35*time.Millisecond, 800*time.Nanosecond, false, true) // warmup: counted, not histogrammed
	tl.RecordComplete(160*time.Millisecond, time.Millisecond, true, false)
	tl.RecordComplete(170*time.Millisecond, 40*time.Millisecond, false, false)
	tl.RecordComplete(230*time.Millisecond, 2*time.Millisecond, true, false)
	tot := tl.Totals()
	if tot.Completed != 4 || tot.Warmup != 1 || tot.Resumed != 2 {
		t.Fatalf("totals %+v", tot)
	}
	if tot.Hist.Count() != 3 {
		t.Fatalf("histogram count %d, want 3 (warmup excluded)", tot.Hist.Count())
	}
	if tot.Hist.Min() != time.Millisecond || tot.Hist.Max() != 40*time.Millisecond {
		t.Fatalf("histogram min/max %v/%v, want 1ms/40ms", tot.Hist.Min(), tot.Hist.Max())
	}
}

// TestTimelineRecordNoAlloc pins the hot recording path at zero
// allocations once a window exists.
func TestTimelineRecordNoAlloc(t *testing.T) {
	tl := NewTimeline(100 * time.Millisecond)
	tl.RecordComplete(2*time.Millisecond, time.Millisecond, true, false)
	avg := testing.AllocsPerRun(1000, func() {
		tl.RecordComplete(2*time.Millisecond, time.Millisecond, false, false)
	})
	if avg != 0 {
		t.Fatalf("record path allocates %.1f/op, want 0", avg)
	}
}
