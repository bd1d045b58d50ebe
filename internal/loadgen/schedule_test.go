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
