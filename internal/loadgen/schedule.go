// Package loadgen drives the real TLS 1.3 stack over TCP sockets under
// open-loop load: handshakes start at pre-computed arrival times regardless
// of how long earlier handshakes take, the arrival process the server-load
// literature uses because it does not let a slow server throttle its own
// offered load. The schedule is a seeded deterministic function of its
// parameters — two runs with the same seed offer byte-identical arrival
// plans, so live measurements differ only in what the host actually did,
// never in what was asked of it.
package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Dist selects the inter-arrival distribution of the open-loop schedule.
type Dist int

const (
	// DistExponential draws exponential gaps (a Poisson arrival process,
	// mean 1/rate) — the standard model for independent clients.
	DistExponential Dist = iota
	// DistUniform draws gaps uniformly from [0, 2/rate) (same mean, bounded
	// burstiness) — useful to separate queueing effects from arrival noise.
	DistUniform
)

// String names the distribution for reports and flag round-trips.
func (d Dist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	default:
		return "exp"
	}
}

// ParseDist parses a -dist flag value.
func ParseDist(s string) (Dist, error) {
	switch s {
	case "exp", "exponential", "poisson":
		return DistExponential, nil
	case "uniform":
		return DistUniform, nil
	}
	return 0, fmt.Errorf("loadgen: unknown distribution %q (want exp or uniform)", s)
}

// Schedule is an open-loop arrival plan: offsets from run start at which
// new handshakes begin.
type Schedule struct {
	Offsets []time.Duration
	Dist    Dist
	Rate    float64
	Seed    int64
}

// NewSchedule builds the arrival plan for rate arrivals/second over the
// given span. The gap sequence comes from a SHA-256 counter-mode DRBG keyed
// on (seed, dist, rate, span) — the same construction the harness uses for
// sample randomness — so the plan depends only on its parameters, not on
// math/rand's generator or the Go release.
func NewSchedule(seed int64, dist Dist, rate float64, span time.Duration) *Schedule {
	s := &Schedule{Dist: dist, Rate: rate, Seed: seed}
	if rate <= 0 || span <= 0 {
		return s
	}
	rng := newScheduleDRBG(seed, dist, rate, span)
	mean := float64(time.Second) / rate // mean gap in nanoseconds
	var at float64
	for {
		u := rng.float64()
		var gap float64
		switch dist {
		case DistUniform:
			gap = u * 2 * mean
		default:
			// Inverse-CDF sample; u is in [0,1), so 1-u never hits zero.
			gap = -math.Log(1-u) * mean
		}
		at += gap
		if at >= float64(span) {
			return s
		}
		s.Offsets = append(s.Offsets, time.Duration(at))
	}
}

// Digest is a short hex fingerprint of the exact arrival offsets. Two runs
// printing the same digest offered the identical load plan — the
// reproducibility check `make live-smoke` asserts.
func (s *Schedule) Digest() string {
	h := sha256.New()
	var buf [8]byte
	for _, off := range s.Offsets {
		binary.BigEndian.PutUint64(buf[:], uint64(off))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// scheduleDRBG is SHA-256 in counter mode over the schedule coordinate
// (compare harness.sampleDRBG, which seeds endpoint randomness the same way).
type scheduleDRBG struct {
	seed [32]byte
	ctr  uint64
}

func newScheduleDRBG(seed int64, dist Dist, rate float64, span time.Duration) *scheduleDRBG {
	h := sha256.New()
	fmt.Fprintf(h, "pqtls-loadgen|%d|%s|%g|%d", seed, dist, rate, span)
	d := &scheduleDRBG{}
	h.Sum(d.seed[:0])
	return d
}

// float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (d *scheduleDRBG) float64() float64 {
	var block [40]byte
	copy(block[:32], d.seed[:])
	binary.BigEndian.PutUint64(block[32:], d.ctr)
	d.ctr++
	sum := sha256.Sum256(block[:])
	x := binary.BigEndian.Uint64(sum[:8])
	return float64(x>>11) / (1 << 53)
}
