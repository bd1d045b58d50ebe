package obs

import "time"

// Metric family names PhaseHooks records into.
const (
	MetricPhaseSeconds = "pqtls_handshake_phase_seconds"
	MetricPubkeyOps    = "pqtls_pubkey_ops_total"
)

// PhaseHooks adapts a Registry to the tls13.Hooks seam (satisfied
// structurally — obs stays a leaf package): every top-level handshake phase
// is observed into a per-phase wall-clock latency histogram and every
// public-key operation increments a counter labeled by op and algorithm.
// Unlike a Tracer, a single PhaseHooks is shared across connections and is
// safe for concurrent use — per-phase state lives in the returned closures.
type PhaseHooks struct {
	reg *Registry
}

// NewPhaseHooks registers the phase metric families on reg and returns the
// hooks. Registering up front makes the families visible to a scrape before
// any traffic arrives.
func NewPhaseHooks(reg *Registry) *PhaseHooks {
	reg.Histogram(MetricPhaseSeconds, helpPhaseSeconds)
	reg.Counter(MetricPubkeyOps, helpPubkeyOps)
	return &PhaseHooks{reg: reg}
}

const (
	helpPhaseSeconds = "Wall-clock time spent in each handshake phase."
	helpPubkeyOps    = "Public-key operations performed, by operation and algorithm."
)

// Phase times the phase into pqtls_handshake_phase_seconds{phase=...}.
// Closing is idempotent; out-of-order closes are inherently safe since each
// closure owns its own start time.
func (p *PhaseHooks) Phase(name string) func() {
	h := p.reg.Histogram(MetricPhaseSeconds, helpPhaseSeconds, "phase", name)
	start := time.Now()
	closed := false
	return func() {
		if closed {
			return
		}
		closed = true
		h.Observe(time.Since(start))
	}
}

// Charge counts the operation into pqtls_pubkey_ops_total{op,alg}.
func (p *PhaseHooks) Charge(op, alg string) {
	p.reg.Counter(MetricPubkeyOps, helpPubkeyOps, "op", op, "alg", alg).Inc()
}
