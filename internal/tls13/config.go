package tls13

import (
	"io"
	"time"
	"unsafe"

	"pqtls/internal/pki"
	"pqtls/internal/sig"
)

// BufferPolicy selects how the server assembles its handshake flight into
// TCP writes — the OpenSSL behaviour Section 4 of the paper analyzes.
type BufferPolicy int

const (
	// BufferDefault models stock OQS-OpenSSL: messages accumulate in a
	// 4096-byte buffer that is flushed when exceeded, with a final flush
	// after the whole flight is computed.
	BufferDefault BufferPolicy = iota
	// BufferImmediate models the paper's optimized build: the ServerHello
	// and the Certificate are pushed to the transport as soon as they are
	// computed, letting the client overlap its decapsulation with the
	// server's signing.
	BufferImmediate
)

// serverBufferSize is OpenSSL's internal buffer (Section 4 of the paper).
const serverBufferSize = 4096

// Library buckets used by the white-box profile.
const (
	LibCrypto = "libcrypto"
	LibSSL    = "libssl"
)

// Operation labels passed to a Meter when a public-key operation runs.
const (
	OpKEMKeygen = "kem/keygen"
	OpKEMEncaps = "kem/encaps"
	OpKEMDecaps = "kem/decaps"
	OpSigSign   = "sig/sign"
	OpSigVerify = "sig/verify"
)

// Meter is a virtual compute clock. When set, the handshake charges every
// public-key operation to it and reads flush offsets from Now() instead of
// the wall clock, making the timing of a handshake a deterministic function
// of the suite rather than of the host's load. The harness installs one per
// handshake when running in modeled-timing mode.
type Meter interface {
	// Charge advances the virtual clock by the modeled cost of op on alg.
	Charge(op, alg string)
	// Now returns the current virtual time.
	Now() time.Time
}

// charge advances the virtual clock (Meter) and notifies observers (Hooks)
// of one public-key operation. The meter is charged first so a hook reading
// a meter-backed clock sees the operation's cost inside its enclosing phase.
func (c *Config) charge(op, alg string) {
	if c == nil {
		return
	}
	if c.Meter != nil {
		c.Meter.Charge(op, alg)
	}
	if c.Hooks != nil {
		c.Hooks.Charge(op, alg)
	}
}

// now returns the meter's virtual time, or the wall clock when unmetered.
func (c *Config) now() time.Time {
	if c != nil && c.Meter != nil {
		return c.Meter.Now()
	}
	return time.Now()
}

// Config carries the suite selection and credentials for one endpoint.
type Config struct {
	// KEMName and SigName are registry names ("kyber512", "rsa:2048", ...).
	// For a client, KEMName is the group it generates its key share for.
	KEMName string
	SigName string
	// SupportedKEMs lists additional groups a client offers in
	// supported_groups without a key share. If the server requires one of
	// them, it answers with a HelloRetryRequest and the handshake costs an
	// extra round trip — the 2-RTT fallback the paper configured away.
	SupportedKEMs []string
	// ServerName is the SNI the client sends and the certificate subject.
	ServerName string
	// Chain and PrivateKey are the server's credentials.
	Chain      []*pki.Certificate
	PrivateKey []byte
	// Roots is the client's trust anchor pool.
	Roots *pki.Pool
	// Buffer selects the server's flight-assembly behaviour.
	Buffer BufferPolicy
	// Hooks, when non-nil, observes the handshake: library spans (white-box
	// buckets), named phases, and public-key operation charges. Stack
	// multiple observers with MultiHooks. Hooks never affect timing —
	// virtual time is owned by Meter alone.
	Hooks Hooks
	// Meter, when non-nil, switches the handshake to virtual compute time:
	// public-key operations charge their modeled cost to it and flush
	// offsets are read from it rather than from time.Now.
	Meter Meter
	// Rand overrides crypto/rand (tests).
	Rand io.Reader
	// TicketKey enables session tickets on a server; instances sharing the
	// key can resume each other's sessions.
	TicketKey *[16]byte
	// Tickets, when non-nil, supplies the shared session-ticket store and
	// takes precedence over TicketKey. Connection-scoped Server values built
	// from the same Config all seal and redeem through this one store, which
	// is what lets a ticket issued on one connection resume on another (see
	// internal/live).
	Tickets *TicketStore
	// Session, when set on a client, resumes via PSK: the Certificate and
	// CertificateVerify flights are skipped entirely.
	Session *Session
	// Signer, when set on a server, computes the CertificateVerify
	// signature in place of SigName's one-shot Sign. The live runtime
	// installs a precomputed signing context here; it must produce
	// signatures verifiable under PrivateKey's public key. The modeled sign
	// cost is charged either way.
	Signer sig.Signer

	// certMsgCache and ticketCache memoize per-Config derived state (the
	// marshaled Certificate message; the TicketStore behind a bare
	// TicketKey). They are unsafe.Pointer instead of atomic.Pointer[T]
	// because Config values are copied; see configcache.go.
	certMsgCache unsafe.Pointer // *certMsgCache
	ticketCache  unsafe.Pointer // *ticketStoreCache
}
