// Package perf is the white-box profiling substrate standing in for Linux
// perf (see DESIGN.md substitution #7): instead of sampling stacks, code
// regions are attributed directly to the "shared object" buckets the paper
// groups by — libcrypto, libssl, kernel, libc, ixgbe, python — and the
// profiler reports per-handshake CPU cost and the per-library distribution
// of Table 3.
package perf

import (
	"sort"
	"time"
)

// The library buckets of the paper's Table 3.
const (
	LibCrypto = "libcrypto"
	LibSSL    = "libssl"
	Kernel    = "kernel"
	LibC      = "libc"
	Ixgbe     = "ixgbe"
	Python    = "python"
)

// Buckets lists all buckets in the paper's presentation order.
func Buckets() []string {
	return []string{LibCrypto, Kernel, LibSSL, LibC, Ixgbe, Python}
}

// Profiler accumulates CPU time per bucket for one endpoint. It is not
// safe for concurrent use; each simulated endpoint owns one.
type Profiler struct {
	spans map[string]time.Duration
	total time.Duration
	open  int
	now   func() time.Time
}

// NewProfiler returns an empty profiler whose spans read the wall clock.
func NewProfiler() *Profiler {
	return &Profiler{spans: map[string]time.Duration{}, now: time.Now}
}

// SetClock makes spans read now instead of the wall clock. Pass the clock
// whose readings AddTotal receives — an endpoint's virtual meter under
// modeled timing — so spans and total are in one unit.
func (p *Profiler) SetClock(now func() time.Time) { p.now = now }

// Span opens a region attributed to lib; call the returned func to close
// it. Closing is idempotent — error paths in the handshake state machines
// can run closers out of LIFO order or twice, which previously corrupted
// the open-region count. Part of the tls13.Hooks implementation.
func (p *Profiler) Span(lib string) func() {
	start := p.now()
	p.open++
	closed := false
	return func() {
		if closed {
			return
		}
		closed = true
		p.open--
		p.spans[lib] += p.now().Sub(start)
	}
}

// Open returns the number of currently open spans (test hook: it must
// return to zero however the closers were ordered).
func (p *Profiler) Open() int { return p.open }

// Phase is a no-op: protocol-phase decomposition is the obs.Tracer's job;
// the profiler only buckets by library. Part of the tls13.Hooks
// implementation.
func (p *Profiler) Phase(name string) func() { return func() {} }

// Charge is a no-op (the Meter owns cost accounting). Part of the
// tls13.Hooks implementation.
func (p *Profiler) Charge(op, alg string) {}

// Attribute adds a known duration to a bucket directly (used for modeled
// costs such as per-packet kernel and driver work).
func (p *Profiler) Attribute(lib string, d time.Duration) {
	p.spans[lib] += d
}

// AddTotal records the CPU time of a whole endpoint step, on the profiler's
// clock; the part not covered by spans is attributed to libc (memory
// management, formatting, misc).
func (p *Profiler) AddTotal(d time.Duration) {
	p.total += d
}

// Merge folds another profiler's accumulated spans and total into p. The
// campaign engine gives each concurrent sample its own profiler and merges
// them in sample order afterwards.
func (p *Profiler) Merge(o *Profiler) {
	if o == nil {
		return
	}
	for lib, d := range o.spans {
		p.spans[lib] += d
	}
	p.total += o.total
}

// Snapshot freezes the profile: per-bucket durations and the total.
type Snapshot struct {
	Spans map[string]time.Duration
	Total time.Duration
}

// Snapshot computes the profile, assigning unattributed measured time to
// libc. The returned snapshot is independent of the profiler.
func (p *Profiler) Snapshot() Snapshot {
	out := Snapshot{Spans: map[string]time.Duration{}, Total: p.total}
	var attributed time.Duration
	for lib, d := range p.spans {
		out.Spans[lib] = d
		attributed += d
	}
	if p.total > attributed {
		out.Spans[LibC] += p.total - attributed
	} else {
		out.Total = attributed
	}
	return out
}

// Distribution returns the per-bucket shares (0..1), largest first, as
// (bucket, share) pairs.
func (s Snapshot) Distribution() []BucketShare {
	var total time.Duration
	for _, d := range s.Spans {
		total += d
	}
	if total == 0 {
		return nil
	}
	out := make([]BucketShare, 0, len(s.Spans))
	for lib, d := range s.Spans {
		out = append(out, BucketShare{Lib: lib, Share: float64(d) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Lib < out[j].Lib
	})
	return out
}

// BucketShare is one library's share of the endpoint's CPU time.
type BucketShare struct {
	Lib   string
	Share float64
}

// Reset clears the profile for the next measurement period.
func (p *Profiler) Reset() {
	p.spans = map[string]time.Duration{}
	p.total = 0
}
