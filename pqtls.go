// Package pqtls is a from-scratch Go reproduction of "The Performance of
// Post-Quantum TLS 1.3" (Sosnowski et al., CoNEXT Companion '23): a TLS 1.3
// stack with pluggable classical, post-quantum, and hybrid key agreements
// and signature algorithms, the paper's three-node measurement testbed as a
// discrete-event simulation, and a benchmark harness that regenerates every
// table and figure of the evaluation.
//
// The package re-exports the stable public surface; implementations live in
// internal/ packages. Quick start:
//
//	client, server := net.Pipe()
//	cfg := ... // see examples/quickstart
//	go pqtls.ServerHandshake(server, serverCfg)
//	cli, err := pqtls.ClientHandshake(client, clientCfg)
package pqtls

import (
	"io"

	"pqtls/internal/harness"
	"pqtls/internal/kem"
	"pqtls/internal/netsim"
	"pqtls/internal/pki"
	"pqtls/internal/sig"
	"pqtls/internal/tls13"
)

// KEM is a key-encapsulation mechanism usable as a TLS 1.3 key agreement.
type KEM = kem.KEM

// SignatureScheme is a signature algorithm usable for certificates and the
// CertificateVerify handshake signature.
type SignatureScheme = sig.Scheme

// KEMByName returns one of the 23 named key agreements of the paper's
// Table 2a (e.g. "x25519", "kyber768", "p256_kyber512").
func KEMByName(name string) (KEM, error) { return kem.ByName(name) }

// KEMNames lists all registered key agreements.
func KEMNames() []string { return kem.Names() }

// SignatureByName returns one of the named signature algorithms of the
// paper's Tables 2b/4b (e.g. "rsa:2048", "dilithium2", "p256_falcon512").
func SignatureByName(name string) (SignatureScheme, error) { return sig.ByName(name) }

// SignatureNames lists all registered signature algorithms.
func SignatureNames() []string { return sig.Names() }

// TLS 1.3 endpoint API.
type (
	// Config carries suite selection and credentials for one endpoint.
	Config = tls13.Config
	// Client and Server are sans-IO handshake state machines.
	Client = tls13.Client
	Server = tls13.Server
	// Record is one TLS record.
	Record = tls13.Record
	// Session is client-side PSK resumption state from a NewSessionTicket.
	Session = tls13.Session
	// TicketStore is the shared session-ticket machinery: one store serves
	// every connection of a server runtime, so tickets issued on one
	// connection resume on another.
	TicketStore = tls13.TicketStore
	// BufferPolicy selects the server's flight-assembly behaviour.
	BufferPolicy = tls13.BufferPolicy
	// Hooks observe a handshake: phase spans, library CPU buckets, and
	// public-key operation charges. Install on Config.Hooks — an obs.Tracer
	// satisfies it, and tls13.MultiHooks stacks several observers.
	Hooks = tls13.Hooks
)

// NewTicketStore builds a ticket store over a fixed 16-byte key; instances
// sharing a key can resume each other's sessions. NewRandomTicketStore keys
// the store for this process's lifetime only.
func NewTicketStore(key [16]byte) *TicketStore    { return tls13.NewTicketStore(key) }
func NewRandomTicketStore() (*TicketStore, error) { return tls13.NewRandomTicketStore() }

// ReadRecord reads one TLS record from a byte stream; WriteRecords writes a
// flight. They let callers speak the record layer around the handshake API
// (e.g. reading the NewSessionTicket flight after ClientHandshake returns).
func ReadRecord(r io.Reader) (Record, error) { return tls13.ReadRecord(r) }
func WriteRecords(w io.Writer, records []Record) error {
	return tls13.WriteRecords(w, records)
}

// Server flight-assembly policies (Section 4 of the paper).
const (
	BufferDefault   = tls13.BufferDefault
	BufferImmediate = tls13.BufferImmediate
)

// NewClient and NewServer construct sans-IO handshakes.
func NewClient(cfg *Config) (*Client, error) { return tls13.NewClient(cfg) }
func NewServer(cfg *Config) (*Server, error) { return tls13.NewServer(cfg) }

// ClientHandshake and ServerHandshake run full handshakes over a byte
// stream (net.Conn, net.Pipe).
func ClientHandshake(conn io.ReadWriter, cfg *Config) (*Client, error) {
	return tls13.ClientHandshake(conn, cfg)
}

func ServerHandshake(conn io.ReadWriter, cfg *Config) (*Server, error) {
	return tls13.ServerHandshake(conn, cfg)
}

// PKI helpers.
type (
	// Certificate is a TLV-encoded certificate with a pluggable signature
	// algorithm.
	Certificate = pki.Certificate
	// CertPool is a set of trusted roots.
	CertPool = pki.Pool
)

// SelfSigned creates a self-signed root for the given scheme name.
func SelfSigned(subject, schemeName string) (*Certificate, []byte, error) {
	scheme, err := sig.ByName(schemeName)
	if err != nil {
		return nil, nil, err
	}
	return pki.SelfSigned(subject, scheme, nil)
}

// IssueCertificate signs subjectPub (a schemeName public key) with issuer.
func IssueCertificate(serial uint64, subject, schemeName string, subjectPub []byte,
	issuer *Certificate, issuerPriv []byte) (*Certificate, error) {
	return pki.Issue(serial, subject, schemeName, subjectPub, issuer, issuerPriv)
}

// NewCertPool creates a pool from root certificates.
func NewCertPool(roots ...*Certificate) *CertPool { return pki.NewPool(roots...) }

// Measurement harness (the paper's methodology).
type (
	// CampaignOptions and CampaignResult run 60-second-equivalent
	// handshake measurement campaigns (samples fan out across Workers).
	CampaignOptions = harness.CampaignOptions
	CampaignResult  = harness.CampaignResult
	// LinkConfig is a netem-style network emulation profile.
	LinkConfig = netsim.LinkConfig
	// Timing selects how per-handshake compute cost is accounted.
	Timing = harness.Timing
	// SweepConfig parameterizes the table/figure sweeps (samples, buffer
	// policy, worker count, timing mode).
	SweepConfig = harness.SweepConfig
)

// Compute-timing modes for campaigns.
const (
	// TimingModel (the default) charges modeled per-operation costs to a
	// virtual clock: results are deterministic and independent of worker
	// count and host load.
	TimingModel = harness.TimingModel
	// TimingReal measures wall-clock compute; it forces sequential
	// execution since concurrent samples would perturb each other.
	TimingReal = harness.TimingReal
)

// RunCampaign measures one suite under one network profile.
func RunCampaign(opts CampaignOptions) (*CampaignResult, error) {
	return harness.RunCampaign(opts)
}

// DefaultWorkers is the worker count used when CampaignOptions.Workers is
// zero (GOMAXPROCS).
func DefaultWorkers() int { return harness.DefaultWorkers() }

// Network scenarios of the paper's Table 4, plus the baseline testbed link.
var (
	ScenarioTestbed      = harness.ScenarioTestbed
	ScenarioHighLoss     = netsim.ScenarioHighLoss
	ScenarioLowBandwidth = netsim.ScenarioLowBandwidth
	ScenarioHighDelay    = netsim.ScenarioHighDelay
	ScenarioLTEM         = netsim.ScenarioLTEM
	Scenario5G           = netsim.Scenario5G
)
