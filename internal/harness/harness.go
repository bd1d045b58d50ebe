// Package harness implements the paper's measurement methodology: it wires
// the TLS 1.3 state machines, the discrete-event network (netsim/tcpsim),
// and the passive timestamper (nettap) into reproducible handshake
// campaigns, and regenerates every table and figure of the evaluation (see
// DESIGN.md's experiment index).
//
// Time model: cryptographic and protocol compute is executed for real (all
// outputs are verified), and its cost is charged to per-party virtual
// clocks from the deterministic cost model (see costmodel.go); network
// transmission, loss, and TCP dynamics advance virtual time through the
// simulation. Handshake latencies are read off the passive tap exactly as
// the paper's timestamper does.
package harness

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pqtls/internal/netsim"
	"pqtls/internal/nettap"
	"pqtls/internal/obs"
	"pqtls/internal/pki"
	"pqtls/internal/sig"
	"pqtls/internal/tcpsim"
	"pqtls/internal/tls13"
)

// ScenarioTestbed models the paper's direct 10 Gbit/s fiber link between
// the two measurement hosts (Figure 2): no loss, LAN-scale RTT.
var ScenarioTestbed = netsim.LinkConfig{Name: "testbed", RTT: 40 * time.Microsecond, Rate: 10_000_000_000}

// Modeled white-box constants (DESIGN.md substitution #7): per-packet
// kernel and NIC-driver work, and per-handshake testbed-tooling overhead.
const (
	kernelPerPacket = 3 * time.Microsecond
	ixgbePerPacket  = 600 * time.Nanosecond
	pythonPerHS     = 30 * time.Microsecond
)

// LibShare is one shared object's share of an endpoint's CPU time.
type LibShare struct {
	Lib   string
	Share float64
}

// LibSplit is one endpoint's Table 3 library split, largest share first
// (ties by name), for a handshake that cost that endpoint cpu and put pkts
// packets on the wire in both directions. The cost model charges only
// public-key compute, which is counted as libcrypto, so the endpoint's CPU
// is all libcrypto and libssl and libc carry nothing; kernel and NIC-driver
// work scale with the packets the endpoint sends and receives, and the
// testbed tooling costs a fixed amount per handshake.
func LibSplit(cpu time.Duration, pkts int) []LibShare {
	costs := map[string]time.Duration{
		"libcrypto": cpu,
		"kernel":    time.Duration(pkts) * kernelPerPacket,
		"ixgbe":     time.Duration(pkts) * ixgbePerPacket,
		"python":    pythonPerHS,
	}
	var total time.Duration
	for _, d := range costs {
		total += d
	}
	out := make([]LibShare, 0, len(costs))
	for lib, d := range costs {
		out = append(out, LibShare{Lib: lib, Share: float64(d) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Lib < out[j].Lib
	})
	return out
}

// credentials is a cached server identity for one signature algorithm.
type credentials struct {
	chain []*pki.Certificate
	priv  []byte
	roots *pki.Pool
}

// credEntry is a singleflight cache slot: the first caller builds the
// credentials inside the entry's Once while later callers for the same key
// block only on that entry, not on the whole cache.
type credEntry struct {
	once sync.Once
	c    *credentials
	err  error
}

var credCache = struct {
	mu sync.Mutex
	m  map[string]*credEntry
}{m: map[string]*credEntry{}}

// credentialsFor builds (once per process) a root CA and a presented chain
// of the given depth (leaf plus depth-1 intermediates), all using the same
// signature algorithm — the paper uses single-certificate chains (depth 1);
// deeper chains feed the chain-depth extension experiment. Safe for
// concurrent use: parallel workers hitting the same key share one build.
func credentialsFor(sigName string, depth int) (*credentials, error) {
	if depth < 1 {
		depth = 1
	}
	key := fmt.Sprintf("%s/%d", sigName, depth)
	credCache.mu.Lock()
	e, ok := credCache.m[key]
	if !ok {
		e = &credEntry{}
		credCache.m[key] = e
	}
	credCache.mu.Unlock()
	e.once.Do(func() { e.c, e.err = buildCredentials(sigName, depth) })
	return e.c, e.err
}

// Credentials is an exported view of a cached server identity. The live
// subsystem (pqbench live, cmd/pqtls-server) serves real sockets with the
// same deterministically-generated chains the modeled campaigns use, so a
// live cell and its modeled prediction present byte-identical certificates.
type Credentials struct {
	Chain []*pki.Certificate
	Priv  []byte
	Roots *pki.Pool
}

// CredentialsFor returns the process-wide cached identity for sigName with
// a chain of the given depth (minimum 1). Safe for concurrent use.
func CredentialsFor(sigName string, depth int) (*Credentials, error) {
	c, err := credentialsFor(sigName, depth)
	if err != nil {
		return nil, err
	}
	return &Credentials{Chain: c.chain, Priv: c.priv, Roots: c.roots}, nil
}

// buildCredentials constructs the CA hierarchy for one cache entry.
func buildCredentials(sigName string, depth int) (*credentials, error) {
	scheme, err := sig.ByName(sigName)
	if err != nil {
		return nil, err
	}
	rng := newCredentialDRBG(sigName, depth)
	root, rootPriv, err := pki.SelfSigned("PQTLS Root CA", scheme, rng)
	if err != nil {
		return nil, err
	}
	issuer, issuerPriv := root, rootPriv
	var intermediates []*pki.Certificate
	for i := 0; i < depth-1; i++ {
		pub, priv, err := scheme.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		ica, err := pki.Issue(uint64(10+i), fmt.Sprintf("PQTLS Intermediate %d", i+1), sigName, pub, issuer, issuerPriv)
		if err != nil {
			return nil, err
		}
		intermediates = append([]*pki.Certificate{ica}, intermediates...)
		issuer, issuerPriv = ica, priv
	}
	leafPub, leafPriv, err := scheme.GenerateKey(rng)
	if err != nil {
		return nil, err
	}
	leaf, err := pki.Issue(2, "server.example", sigName, leafPub, issuer, issuerPriv)
	if err != nil {
		return nil, err
	}
	return &credentials{
		chain: append([]*pki.Certificate{leaf}, intermediates...),
		priv:  leafPriv,
		roots: pki.NewPool(root),
	}, nil
}

// HandshakeResult is everything one simulated handshake yields.
type HandshakeResult struct {
	Phases nettap.Phases
	// Cycle is the full virtual duration from TCP SYN to the client
	// Finished arriving at the server — the sequential-handshake period
	// that determines how many handshakes fit in 60 s.
	Cycle time.Duration
	// Wire volume per side, including all headers and retransmissions.
	ClientBytes, ServerBytes     int
	ClientPackets, ServerPackets int
	// Measured CPU per side.
	ClientCPU, ServerCPU time.Duration
	// Flushes the server produced (buffering-policy observable).
	ServerFlushes int
}

// RunOptions configure a single handshake simulation.
type RunOptions struct {
	KEM    string
	Sig    string
	Link   netsim.LinkConfig
	Buffer tls13.BufferPolicy
	Seed   int64
	// CWND overrides the initial congestion window (0 = Linux default 10)
	// for the Section 5.4 / conclusion tuning experiment.
	CWND int
	// ClientKEM, when set, is the client's key-share guess; combined with
	// ClientSupported it triggers the HelloRetryRequest fallback when the
	// guess differs from KEM (the server's requirement).
	ClientKEM       string
	ClientSupported []string
	// ChainDepth is the presented certificate-chain length (default 1, as
	// in the paper).
	ChainDepth int
	// Resume measures a PSK-resumed handshake: a full handshake first runs
	// outside the simulation to obtain a session ticket, then the resumed
	// handshake is measured.
	Resume bool
	// Trace, when non-nil, collects per-endpoint span traces of the
	// measured handshake (not of the un-simulated ticket-priming handshake
	// under Resume). Spans read each endpoint's virtual meter time.
	// TraceSample labels the traces with a sample index.
	Trace       *obs.Collector
	TraceSample int
	// Pcap, when non-nil, records every tap frame to a libpcap capture
	// (the artifact publishes PCAPs of each run).
	Pcap *nettap.PcapWriter
}

// RunHandshake performs one full handshake through the simulated testbed.
func RunHandshake(opts RunOptions) (*HandshakeResult, error) {
	creds, err := credentialsFor(opts.Sig, opts.ChainDepth)
	if err != nil {
		return nil, err
	}
	link := netsim.NewLink(opts.Link, opts.Seed)
	ts := nettap.NewTimestamper()
	if opts.Pcap != nil {
		link.SetTap(nettap.TeeTap(ts.Tap, opts.Pcap.Tap))
	} else {
		link.SetTap(ts.Tap)
	}
	conn := tcpsim.NewConn(link, tcpsim.Options{InitialCwnd: opts.CWND})

	srvCfg := &tls13.Config{
		KEMName: opts.KEM, SigName: opts.Sig, ServerName: "server.example",
		Chain: creds.chain, PrivateKey: creds.priv, Buffer: opts.Buffer,
		Tickets: resumptionTickets,
	}
	clientKEM := opts.KEM
	if opts.ClientKEM != "" {
		clientKEM = opts.ClientKEM
	}
	cliCfg := &tls13.Config{
		KEMName: clientKEM, SigName: opts.Sig, ServerName: "server.example",
		SupportedKEMs: opts.ClientSupported,
		Roots:         creds.roots,
	}
	// One stream, derived from the run's coordinate, seeds both endpoints:
	// the sans-IO drive below is single-threaded, so they consume it in a
	// deterministic order and the handshake is a function of opts alone.
	rng := newSampleDRBG(opts.KEM, opts.Sig, opts.Link.Name, opts.Seed)
	cliCfg.Rand, srvCfg.Rand = rng, rng
	// Per-party compute clocks: each endpoint gets its own CostMeter and
	// every compute span below reads meter deltas instead of the wall clock,
	// making the whole simulation jitter-free.
	cliMeter, srvMeter := NewCostMeter(nil), NewCostMeter(nil)
	cliCfg.Meter, srvCfg.Meter = cliMeter, srvMeter
	if opts.Resume {
		sess, err := obtainSession(cliCfg, srvCfg)
		if err != nil {
			return nil, fmt.Errorf("harness: obtaining session ticket: %w", err)
		}
		cliCfg.Session = sess
	}
	// Tracers are installed after the ticket-priming handshake so only the
	// measured handshake is traced. Each endpoint's tracer reads that
	// endpoint's virtual meter, so span durations are exactly the charged
	// compute.
	var cliTracer, srvTracer *obs.Tracer
	if opts.Trace != nil {
		meta := obs.Meta{
			KEM: clientKEM, Sig: opts.Sig,
			Buffer:  BufferName(opts.Buffer),
			Sample:  opts.TraceSample,
			Resumed: opts.Resume,
		}
		cliMeta, srvMeta := meta, meta
		cliMeta.Endpoint, srvMeta.Endpoint = "client", "server"
		cliTracer = obs.NewTracer(cliMeta, cliMeter.Now)
		srvTracer = obs.NewTracer(srvMeta, srvMeter.Now)
		cliCfg.Hooks = cliTracer
		srvCfg.Hooks = srvTracer
	}
	cli, err := tls13.NewClient(cliCfg)
	if err != nil {
		return nil, err
	}
	srv, err := tls13.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}

	res := &HandshakeResult{}

	// TCP establishment.
	clientReady, _ := conn.Connect(0)

	// ClientHello (client-side key generation happens here; the paper's
	// phase measurements exclude it, the cycle time includes it).
	sw := cliMeter.stopwatch()
	chFlight, err := cli.Start()
	if err != nil {
		return nil, err
	}
	chCompute := sw()
	res.ClientCPU += chCompute
	tCH := clientReady + chCompute
	chArrive := conn.Send(netsim.ClientToServer, tCH, marshalRecords(chFlight))

	// Server flights with per-flush availability offsets. The loop runs
	// once for a 1-RTT handshake and twice when the server answers with a
	// HelloRetryRequest (2-RTT fallback).
	clientFree := tCH
	clientFlight := chFlight
	flightArrive := chArrive
	var finalFlight []tls13.Record
	var tFinWrite time.Duration
	for round := 0; round < 2 && finalFlight == nil; round++ {
		sw = srvMeter.stopwatch()
		flushes, err := srv.Respond(clientFlight)
		if err != nil {
			return nil, err
		}
		res.ServerCPU += sw()
		res.ServerFlushes += len(flushes)

		// Transmit each flush when it becomes available; the client
		// consumes each flush when delivered AND it is free —
		// decapsulation overlaps with the server still signing when the
		// SH was pushed early.
		var retry []tls13.Record
		for _, f := range flushes {
			ready := flightArrive + f.Offset
			delivered := conn.Send(netsim.ServerToClient, ready, marshalRecords(f.Records))
			start := delivered
			if clientFree > start {
				start = clientFree
			}
			// The client sat idle from clientFree to start waiting for this
			// flush — the flight-wait phase the buffering analysis turns on.
			// Offsets are relative to the ClientHello hitting the wire (the
			// tap's Total origin), on the transport timeline.
			if cliTracer != nil && start > clientFree {
				cliTracer.Add(tls13.PhaseFlightWait, clientFree-tCH, start-tCH)
			}
			sw = cliMeter.stopwatch()
			out, done, err := cli.Consume(f.Records)
			if err != nil {
				return nil, err
			}
			d := sw()
			res.ClientCPU += d
			clientFree = start + d
			switch {
			case done:
				finalFlight = out
				tFinWrite = clientFree
			case len(out) > 0:
				retry = out // HelloRetryRequest answer
			}
		}
		if retry != nil {
			clientFlight = retry
			flightArrive = conn.Send(netsim.ClientToServer, clientFree, marshalRecords(retry))
		}
	}
	if finalFlight == nil {
		return nil, fmt.Errorf("harness: client did not finish (%s/%s)", opts.KEM, opts.Sig)
	}
	finArrive := conn.Send(netsim.ClientToServer, tFinWrite, marshalRecords(finalFlight))

	sw = srvMeter.stopwatch()
	if err := srv.Finish(finalFlight); err != nil {
		return nil, err
	}
	res.ServerCPU += sw()

	phases, ok := ts.Phases()
	if !ok {
		return nil, fmt.Errorf("harness: tap did not observe a complete handshake (%s/%s)", opts.KEM, opts.Sig)
	}
	res.Phases = phases
	res.Cycle = finArrive + res.ServerCPU // server wraps up after Fin arrives
	if opts.Trace != nil {
		opts.Trace.Add(cliTracer)
		opts.Trace.Add(srvTracer)
	}
	res.ClientBytes = link.Bytes[netsim.ClientToServer]
	res.ServerBytes = link.Bytes[netsim.ServerToClient]
	res.ClientPackets = link.Packets[netsim.ClientToServer]
	res.ServerPackets = link.Packets[netsim.ServerToClient]
	return res, nil
}

// BufferName renders a BufferPolicy for trace metadata and file names.
func BufferName(p tls13.BufferPolicy) string {
	if p == tls13.BufferImmediate {
		return "immediate"
	}
	return "default"
}

// resumptionTickets is the one ticket store, over a static key, that every
// simulated server seals and redeems through, so sessions resume across
// simulated handshakes.
var resumptionTickets = tls13.NewTicketStore([16]byte{'p', 'q', 't', 'l', 's', '-', 't', 'i', 'c', 'k', 'e', 't', '-', 'k', 'e', 'y'})

// obtainSession runs one un-simulated full handshake to get a ticket.
func obtainSession(cliCfg, srvCfg *tls13.Config) (*tls13.Session, error) {
	cli, err := tls13.NewClient(cliCfg)
	if err != nil {
		return nil, err
	}
	srv, err := tls13.NewServer(srvCfg)
	if err != nil {
		return nil, err
	}
	ch, err := cli.Start()
	if err != nil {
		return nil, err
	}
	flushes, err := srv.Respond(ch)
	if err != nil {
		return nil, err
	}
	var final []tls13.Record
	for _, f := range flushes {
		out, done, err := cli.Consume(f.Records)
		if err != nil {
			return nil, err
		}
		if done {
			final = out
		}
	}
	if err := srv.Finish(final); err != nil {
		return nil, err
	}
	flight, _, err := srv.SessionTicket()
	if err != nil {
		return nil, err
	}
	return cli.ProcessTicket(flight)
}

// marshalRecords renders records to their wire bytes.
func marshalRecords(records []tls13.Record) []byte {
	var out []byte
	for _, r := range records {
		out = append(out, r.Marshal()...)
	}
	return out
}
