package tls13

// Hooks is the unified observation seam of the handshake state machines:
// the obs span tracer and the live metrics recorder are both hook
// implementations and can be stacked with MultiHooks. The cost-model Meter
// stays a separate seam (see Config.Meter).
//
// The two methods observe one handshake at the grain of its phases:
//
//   - Phase(name) opens a named handshake phase (Phase* constants) — the
//     protocol-level decomposition (KEM decap, CertificateVerify sign, ...).
//     Phases nest; implementations must tolerate out-of-order and repeated
//     closes (error paths may abandon phases).
//   - Charge(op, alg) observes one public-key operation inside the
//     innermost open phase. Unlike Config.Meter — which owns the virtual
//     compute clock and is kept separate precisely so an observer can never
//     advance simulated time — a hook's Charge is purely an observation.
//
// Concurrency: a Hooks value installed on a per-handshake Config (harness,
// loadgen) is called from that handshake's goroutine only; a value shared
// across connections (internal/live's metrics recorder) must be safe for
// concurrent use.
type Hooks interface {
	// Phase opens a named handshake phase; the returned func closes it.
	Phase(name string) func()
	// Charge observes a public-key operation (an Op* label) on alg.
	Charge(op, alg string)
}

// Handshake phase names passed to Hooks.Phase. The same vocabulary is used
// on both endpoints (span records carry the endpoint); drivers that measure
// inter-flight idle time emit PhaseFlightWait themselves — the state
// machines are sans-IO and never see the waiting.
const (
	// PhaseClientHello is the client's ClientHello build, including key-share
	// generation. It runs before the CH reaches the wire, so the paper's
	// Total (tap CH→Fin) excludes it.
	PhaseClientHello = "client-hello"
	// PhaseCHParse is the server parsing the ClientHello flight.
	PhaseCHParse = "client-hello-parse"
	// PhaseKEMKeygen nests inside PhaseClientHello around key generation.
	PhaseKEMKeygen = "kem-keygen"
	// PhaseServerHello is the ServerHello build (server) or parse (client).
	PhaseServerHello = "server-hello"
	// PhaseKEMEncap and PhaseKEMDecap are the key-agreement halves.
	PhaseKEMEncap = "kem-encap"
	PhaseKEMDecap = "kem-decap"
	// PhaseCertWrite is the server marshaling + sealing the certificate
	// chain; PhaseCertVerify is the client validating it.
	PhaseCertWrite  = "cert-write"
	PhaseCertVerify = "cert-verify"
	// PhaseCVSign and PhaseCVVerify are the CertificateVerify signature.
	PhaseCVSign   = "cv-sign"
	PhaseCVVerify = "cv-verify"
	// PhaseFinSend and PhaseFinVerify are the Finished MAC build and check.
	PhaseFinSend   = "finished-send"
	PhaseFinVerify = "finished-verify"
	// PhaseRecordRead and PhaseRecordWrite are record protection: AEAD open
	// of an arriving record, AEAD seal of an outgoing handshake message.
	PhaseRecordRead  = "record-read"
	PhaseRecordWrite = "record-write"
	// PhaseTicketIssue is the server building a NewSessionTicket;
	// PhaseTicketRedeem is the server opening a presented ticket;
	// PhaseTicketProcess is the client absorbing a ticket flight.
	PhaseTicketIssue   = "ticket-issue"
	PhaseTicketRedeem  = "ticket-redeem"
	PhaseTicketProcess = "ticket-process"
	// PhaseFlightWait is emitted by handshake drivers (the harness drive
	// loop, ClientHandshake around each blocking read) for time the client
	// spends idle waiting for the server's next flush — the observable the
	// buffering-policy analysis (Section 5.2) turns on.
	PhaseFlightWait = "flight-wait"
)

// multiHooks fans every hook event out to each element.
type multiHooks []Hooks

// MultiHooks combines hook implementations; nil entries are dropped. It
// returns nil when nothing remains, so the result can be assigned to
// Config.Hooks unconditionally.
func MultiHooks(hooks ...Hooks) Hooks {
	var hs multiHooks
	for _, h := range hooks {
		if h != nil {
			hs = append(hs, h)
		}
	}
	switch len(hs) {
	case 0:
		return nil
	case 1:
		return hs[0]
	}
	return hs
}

func (m multiHooks) Phase(name string) func() {
	ends := make([]func(), len(m))
	for i, h := range m {
		ends[i] = h.Phase(name)
	}
	return func() {
		for i := len(ends) - 1; i >= 0; i-- {
			ends[i]()
		}
	}
}

func (m multiHooks) Charge(op, alg string) {
	for _, h := range m {
		h.Charge(op, alg)
	}
}

// nopEnd is the shared no-op phase closer for unhooked configs.
func nopEnd() {}

// phase is the nil-safe phase helper.
func (c *Config) phase(name string) func() {
	if c == nil || c.Hooks == nil {
		return nopEnd
	}
	return c.Hooks.Phase(name)
}
