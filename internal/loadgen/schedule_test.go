package loadgen

import (
	"reflect"
	"testing"
	"time"
)

// TestScheduleDeterminism pins the subsystem's reproducibility contract:
// the seeded arrival plan is byte-identical across runs, and distinct seeds
// or parameters give distinct plans.
func TestScheduleDeterminism(t *testing.T) {
	a := NewSchedule(1, DistExponential, 200, 2*time.Second)
	b := NewSchedule(1, DistExponential, 200, 2*time.Second)
	if !reflect.DeepEqual(a.Offsets, b.Offsets) {
		t.Fatal("same parameters produced different arrival offsets")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ for identical schedules: %s vs %s", a.Digest(), b.Digest())
	}
	if len(a.Offsets) == 0 {
		t.Fatal("schedule is empty")
	}
	if c := NewSchedule(2, DistExponential, 200, 2*time.Second); c.Digest() == a.Digest() {
		t.Fatal("different seeds produced the same digest")
	}
	if c := NewSchedule(1, DistUniform, 200, 2*time.Second); c.Digest() == a.Digest() {
		t.Fatal("different distributions produced the same digest")
	}
}

// TestScheduleGolden pins the exact first offsets of a fixed coordinate.
// The DRBG is SHA-256 counter mode over the parameter string; nothing about
// the host, the Go release, or math/rand may change these values.
func TestScheduleGolden(t *testing.T) {
	s := NewSchedule(1, DistExponential, 200, 2*time.Second)
	if got, want := s.Digest(), "41beff51f726325c"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func TestScheduleShape(t *testing.T) {
	const rate = 1000.0
	span := 10 * time.Second
	for _, dist := range []Dist{DistExponential, DistUniform} {
		s := NewSchedule(7, dist, rate, span)
		want := rate * span.Seconds()
		if n := float64(len(s.Offsets)); n < want*0.9 || n > want*1.1 {
			t.Errorf("%s: %v arrivals, want within 10%% of %v", dist, n, want)
		}
		mean := 2 * float64(time.Second) / rate // uniform gap upper bound
		prev := time.Duration(0)
		for i, off := range s.Offsets {
			if off < prev {
				t.Fatalf("%s: offsets not monotone at %d: %v < %v", dist, i, off, prev)
			}
			if off >= span {
				t.Fatalf("%s: offset %v beyond span %v", dist, off, span)
			}
			if dist == DistUniform {
				if gap := off - prev; float64(gap) >= mean {
					t.Fatalf("%s: gap %v exceeds uniform bound %v", dist, gap, time.Duration(mean))
				}
			}
			prev = off
		}
	}
}

func TestScheduleDegenerate(t *testing.T) {
	if s := NewSchedule(1, DistExponential, 0, time.Second); len(s.Offsets) != 0 {
		t.Error("zero rate should give an empty schedule")
	}
	if s := NewSchedule(1, DistExponential, 100, 0); len(s.Offsets) != 0 {
		t.Error("zero span should give an empty schedule")
	}
}

func TestParseDist(t *testing.T) {
	for in, want := range map[string]Dist{"exp": DistExponential, "exponential": DistExponential,
		"poisson": DistExponential, "uniform": DistUniform} {
		got, err := ParseDist(in)
		if err != nil || got != want {
			t.Errorf("ParseDist(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDist("zipf"); err == nil {
		t.Error("ParseDist accepted an unknown distribution")
	}
}

// TestScheduleSplit pins the sharded-dispatch contract: Split partitions
// the plan round-robin with absolute offsets preserved, covers it exactly,
// and is deterministic — same seed and worker count, same parts, same
// digests. The dist coordinator's digest-exact merge rests on this.
func TestScheduleSplit(t *testing.T) {
	s := NewSchedule(7, DistExponential, 300, 2*time.Second)
	const n = 3
	parts, err := s.Split(n)
	if err != nil {
		t.Fatalf("Split(%d): %v", n, err)
	}
	if len(parts) != n {
		t.Fatalf("Split(%d) returned %d parts", n, len(parts))
	}
	// Interleaving the parts back must reconstruct the original exactly.
	total := 0
	for _, p := range parts {
		total += len(p.Offsets)
	}
	if total != len(s.Offsets) {
		t.Fatalf("parts cover %d offsets, schedule has %d", total, len(s.Offsets))
	}
	for i, off := range s.Offsets {
		p := parts[i%n]
		if got := p.Offsets[i/n]; got != off {
			t.Fatalf("offset %d: part %d[%d] = %v, want %v", i, i%n, i/n, got, off)
		}
	}
	// Each part stays monotone (the dispatcher sleeps to each offset in turn).
	for w, p := range parts {
		for i := 1; i < len(p.Offsets); i++ {
			if p.Offsets[i] < p.Offsets[i-1] {
				t.Fatalf("part %d not monotone at %d", w, i)
			}
		}
	}
	// Determinism across independent builds of the same plan.
	again, err := NewSchedule(7, DistExponential, 300, 2*time.Second).Split(n)
	if err != nil {
		t.Fatalf("second Split(%d): %v", n, err)
	}
	for w := range parts {
		if parts[w].Digest() != again[w].Digest() {
			t.Fatalf("part %d digest differs across identical splits", w)
		}
	}
}

// TestScheduleSplitEdges pins the guard contract: non-positive part counts
// and counts beyond the plan size are explicit errors — never a panic, a
// clamp, or a batch of empty shards a coordinator would assign as no-ops.
func TestScheduleSplitEdges(t *testing.T) {
	s := NewSchedule(7, DistExponential, 300, 2*time.Second)
	for _, n := range []int{0, -1, -100} {
		parts, err := s.Split(n)
		if err == nil {
			t.Errorf("Split(%d) = %d parts, want error", n, len(parts))
		}
	}
	for _, n := range []int{len(s.Offsets) + 1, len(s.Offsets) * 2} {
		parts, err := s.Split(n)
		if err == nil {
			t.Errorf("Split(%d) with %d arrivals = %d parts, want error", n, len(s.Offsets), len(parts))
		}
	}
	// The boundary itself is legal: one arrival per part, no empties.
	parts, err := s.Split(len(s.Offsets))
	if err != nil {
		t.Fatalf("Split(len) errored: %v", err)
	}
	for w, p := range parts {
		if len(p.Offsets) != 1 {
			t.Fatalf("part %d has %d offsets, want exactly 1", w, len(p.Offsets))
		}
	}
	// An empty schedule cannot be split at all.
	if _, err := (&Schedule{}).Split(1); err == nil {
		t.Error("Split(1) on an empty schedule should error")
	}
}

// TestResultMerge checks that merging split results reproduces the unsplit
// aggregation: counters sum, error classes union, extrema take the max,
// and the log-bucketed histogram merges bucket-exactly.
func TestResultMerge(t *testing.T) {
	lat := []time.Duration{time.Millisecond, 2 * time.Millisecond, 40 * time.Millisecond, 41 * time.Millisecond}
	whole := &Result{Errors: map[string]uint64{}}
	a := &Result{Errors: map[string]uint64{"dial": 1}, Offered: 2, Started: 2, Completed: 2,
		MaxLag: 3 * time.Millisecond, Elapsed: time.Second}
	b := &Result{Errors: map[string]uint64{"dial": 2, "timeout": 1}, Offered: 2, Started: 2,
		Completed: 1, Failed: 1, Resumed: 1, Warmup: 1,
		MaxLag: 5 * time.Millisecond, Elapsed: 2 * time.Second}
	for i, d := range lat {
		whole.Hist.Record(d)
		if i%2 == 0 {
			a.Hist.Record(d)
		} else {
			b.Hist.Record(d)
		}
	}
	a.Merge(b)
	if a.Offered != 4 || a.Started != 4 || a.Completed != 3 || a.Failed != 1 ||
		a.Resumed != 1 || a.Warmup != 1 {
		t.Fatalf("merged counters wrong: %+v", a)
	}
	if a.Errors["dial"] != 3 || a.Errors["timeout"] != 1 {
		t.Fatalf("merged error classes wrong: %v", a.Errors)
	}
	if a.MaxLag != 5*time.Millisecond || a.Elapsed != 2*time.Second {
		t.Fatalf("merged extrema wrong: lag %v elapsed %v", a.MaxLag, a.Elapsed)
	}
	if a.Hist.Count() != whole.Hist.Count() {
		t.Fatalf("merged histogram count %d, want %d", a.Hist.Count(), whole.Hist.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := a.Hist.Quantile(q), whole.Hist.Quantile(q); got != want {
			t.Fatalf("merged q%.2f = %v, unsplit = %v", q, got, want)
		}
	}
	// Merging a nil result is a no-op.
	before := a.Hist.Count()
	a.Merge(nil)
	if a.Hist.Count() != before {
		t.Fatal("Merge(nil) changed the result")
	}
}
