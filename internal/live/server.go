// Package live is the server half of the live measurement subsystem: a
// concurrent TLS 1.3 accept-loop runtime hardened the way a production
// front-end is. Where cmd/pqtls-server used to log.Fatal on the first
// transient Accept error and would happily leak a goroutine per stalled
// peer, this runtime retries Accept with exponential backoff, bounds
// concurrent handshakes with a limiter, puts a deadline on every
// connection, shares one session-ticket store across all connections so
// resumption works between them, classifies failures into counters, and
// drains gracefully on shutdown. The matching client side is
// internal/loadgen.
//
// All bookkeeping lives in an obs.Registry of atomic instruments, so a
// scrape endpoint (Options.MetricsAddr) can serve Prometheus text-format
// /metrics and /healthz without touching the accept path's mutex.
package live

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"pqtls/internal/obs"
	"pqtls/internal/sig"
	"pqtls/internal/tls13"
)

// readerPool recycles per-connection buffered readers: the record layer
// otherwise costs two read syscalls per record (header, body). A handshake
// is a handful of records, so batching them behind one 4 KiB buffer
// meaningfully cuts the syscall share of a loopback handshake.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 4096) },
}

// bufferedConn reads through a pooled bufio.Reader and writes straight to
// the connection. The handshake protocol never leaves client bytes unread
// past the client Finished, so returning the reader to the pool after the
// handshake cannot swallow data.
type bufferedConn struct {
	r *bufio.Reader
	io.Writer
}

func (b bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// Options configure a Server runtime.
type Options struct {
	// Config is the handshake template (suite, credentials, buffering).
	// The runtime copies it and installs a shared ticket store and, unless
	// Config.Signer is already set, a signing context for PrivateKey that
	// lives as long as the runtime, so one Options value can safely serve
	// many runtimes.
	Config *tls13.Config
	// MaxConns bounds concurrently-handshaking connections (0 = 256).
	// Accept blocks once the bound is reached — backpressure instead of
	// unbounded goroutine growth.
	MaxConns int
	// HandshakeTimeout is the per-connection deadline covering the whole
	// handshake, including the ticket flight (0 = 10s). A stalled peer
	// costs one connection slot for at most this long.
	HandshakeTimeout time.Duration
	// IssueTickets sends a NewSessionTicket after every full handshake, so
	// clients can come back with PSK resumption. Resumed handshakes do not
	// mint further tickets.
	IssueTickets bool
	// Logf, when non-nil, receives operational log lines (accept retries,
	// handshake failures). Nil means silent.
	Logf func(format string, args ...any)
	// Registry, when non-nil, receives the runtime's metrics; nil gives the
	// runtime a private registry (still scrapeable via MetricsAddr).
	Registry *obs.Registry
	// MetricsAddr, when non-empty, starts an HTTP listener at this address
	// serving GET /metrics (Prometheus text format, version 0.0.4) and GET
	// /healthz (200 while serving, 503 once draining). Use ":0" for an
	// ephemeral port and read it back with (*Server).MetricsAddr.
	MetricsAddr string
	// PhaseMetrics additionally installs obs phase hooks on the handshake
	// config, filling pqtls_handshake_phase_seconds{phase=...} histograms
	// and pqtls_pubkey_ops_total{op,alg} counters.
	PhaseMetrics bool
}

// Counters is a point-in-time snapshot of a runtime's bookkeeping. Every
// field is read from its own atomic instrument, so a snapshot taken while
// handshakes complete concurrently is torn at worst between fields, never
// within one — FailedTotal sums per-class atomics observed at one Load each.
type Counters struct {
	Accepted        uint64            // connections taken from the listener
	Completed       uint64            // handshakes finished (full + resumed)
	Resumed         uint64            // of Completed, PSK-resumed
	Failed          map[string]uint64 // failures by Classify class
	TicketIssueErrs uint64            // post-handshake ticket flights that failed
	AcceptRetries   uint64            // transient Accept errors survived
}

// FailedTotal sums the failure classes.
func (c Counters) FailedTotal() uint64 {
	var n uint64
	for _, v := range c.Failed {
		n += v
	}
	return n
}

// Metric family names the runtime registers.
const (
	MetricHandshakes      = "pqtls_handshakes_total"
	MetricAccepted        = "pqtls_connections_accepted_total"
	MetricAcceptRetries   = "pqtls_accept_retries_total"
	MetricTicketIssueErrs = "pqtls_ticket_issue_errors_total"
	MetricResumed         = "pqtls_handshakes_resumed_total"
	MetricInflight        = "pqtls_inflight_connections"
	MetricDraining        = "pqtls_draining"
	MetricHSDuration      = "pqtls_handshake_duration_seconds"
	MetricTicketsIssued   = "pqtls_tickets_issued_total"
	MetricTicketsRedeemed = "pqtls_tickets_redeemed_total"
	MetricTicketsRejected = "pqtls_tickets_rejected_total"
)

const handshakesHelp = "Handshake outcomes by result class (ok or a failure class)."

// Server is a running accept loop plus its in-flight connections.
type Server struct {
	ln       net.Listener
	opts     Options
	cfg      *tls13.Config
	sem      chan struct{}
	shutdown chan struct{}
	loopDone chan struct{}
	wg       sync.WaitGroup

	reg           *obs.Registry
	accepted      *obs.Counter
	completed     *obs.Counter // pqtls_handshakes_total{result="ok"}
	resumed       *obs.Counter
	ticketErrs    *obs.Counter
	acceptRetries *obs.Counter
	inflight      *obs.Gauge
	draining      *obs.Gauge
	hsDur         *obs.LatencyHistogram

	metricsLn   net.Listener
	httpSrv     *http.Server
	metricsDone chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	failed map[string]*obs.Counter // class -> pqtls_handshakes_total{result=class}
	closed bool
}

// resolveConfig copies the caller's handshake template and fills in what
// lives as long as the runtime rather than one connection: the shared
// ticket store every per-connection Server seals and redeems through (it
// is what makes resumption work across connections) and, when the caller
// supplied a private key but no Signer, a signing context for that key, so
// per-key setup (Dilithium's matrix expansion and secret NTTs) is paid once
// instead of per handshake. A template that already carries a store or a
// Signer keeps it, which is how several runtimes share one.
func resolveConfig(tmpl *tls13.Config) (*tls13.Config, error) {
	cfg := *tmpl
	if cfg.Tickets == nil {
		store, err := tls13.NewRandomTicketStore()
		if err != nil {
			return nil, fmt.Errorf("live: ticket store: %w", err)
		}
		cfg.Tickets = store
	}
	if cfg.Signer == nil && len(cfg.PrivateKey) > 0 {
		scheme, err := sig.ByName(cfg.SigName)
		if err != nil {
			return nil, fmt.Errorf("live: signing context: %w", err)
		}
		cfg.Signer = sig.NewSigner(scheme, cfg.PrivateKey)
	}
	return &cfg, nil
}

// Serve starts the accept loop on ln and returns immediately. The listener
// is owned by the returned Server; stop it with Shutdown.
func Serve(ln net.Listener, opts Options) (*Server, error) {
	if opts.Config == nil {
		return nil, errors.New("live: Options.Config is required")
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = 256
	}
	if opts.HandshakeTimeout <= 0 {
		opts.HandshakeTimeout = 10 * time.Second
	}
	cfg, err := resolveConfig(opts.Config)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.PhaseMetrics {
		cfg.Hooks = tls13.MultiHooks(cfg.Hooks, obs.NewPhaseHooks(reg))
	}
	s := &Server{
		ln:       ln,
		opts:     opts,
		cfg:      cfg,
		sem:      make(chan struct{}, opts.MaxConns),
		shutdown: make(chan struct{}),
		loopDone: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		failed:   make(map[string]*obs.Counter),
		reg:      reg,
	}
	// Every family is registered up front so a scrape sees the full schema
	// before any traffic arrives.
	s.completed = reg.Counter(MetricHandshakes, handshakesHelp, "result", "ok")
	s.accepted = reg.Counter(MetricAccepted, "Connections taken from the listener.")
	s.acceptRetries = reg.Counter(MetricAcceptRetries, "Transient Accept errors survived.")
	s.ticketErrs = reg.Counter(MetricTicketIssueErrs, "Post-handshake ticket flights that failed.")
	s.resumed = reg.Counter(MetricResumed, "Completed handshakes that were PSK-resumed.")
	s.inflight = reg.Gauge(MetricInflight, "Connections currently handshaking.")
	s.draining = reg.Gauge(MetricDraining, "1 while the runtime is draining, else 0.")
	s.hsDur = reg.Histogram(MetricHSDuration, "Wall-clock duration of successful handshakes.")
	store := cfg.Tickets
	reg.CounterFunc(MetricTicketsIssued, "Tickets sealed into NewSessionTicket flights.",
		func() uint64 { return store.Stats().Issued })
	reg.CounterFunc(MetricTicketsRedeemed, "Presented tickets that decrypted and parsed.",
		func() uint64 { return store.Stats().Redeemed })
	reg.CounterFunc(MetricTicketsRejected, "Presented tickets that failed to open.",
		func() uint64 { return store.Stats().Rejected })

	if opts.MetricsAddr != "" {
		mln, err := net.Listen("tcp", opts.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("live: metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.HandleFunc("/healthz", s.healthz)
		s.metricsLn = mln
		s.httpSrv = &http.Server{Handler: mux}
		s.metricsDone = make(chan struct{})
		go func() {
			defer close(s.metricsDone)
			s.httpSrv.Serve(mln)
		}()
	}

	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MetricsAddr returns the metrics listener's address, or nil when
// Options.MetricsAddr was empty.
func (s *Server) MetricsAddr() net.Addr {
	if s.metricsLn == nil {
		return nil
	}
	return s.metricsLn.Addr()
}

// Registry returns the registry the runtime records into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// TicketStats exposes the shared ticket store's counters.
func (s *Server) TicketStats() tls13.TicketStats { return s.cfg.Tickets.Stats() }

// healthz reports readiness: 200 while serving, 503 once draining.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Value() != 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// failedCounter returns the per-class failure counter, creating the series
// on first use.
func (s *Server) failedCounter(class string) *obs.Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.failed[class]
	if !ok {
		c = s.reg.Counter(MetricHandshakes, handshakesHelp, "result", class)
		s.failed[class] = c
	}
	return c
}

// Counters returns a snapshot of the runtime's counters. Each field is one
// atomic load, so no read can be torn by concurrent handshakes.
func (s *Server) Counters() Counters {
	out := Counters{
		Accepted:        s.accepted.Value(),
		Completed:       s.completed.Value(),
		Resumed:         s.resumed.Value(),
		TicketIssueErrs: s.ticketErrs.Value(),
		AcceptRetries:   s.acceptRetries.Value(),
		Failed:          make(map[string]uint64),
	}
	s.mu.Lock()
	classes := make(map[string]*obs.Counter, len(s.failed))
	for k, c := range s.failed {
		classes[k] = c
	}
	s.mu.Unlock()
	for k, c := range classes {
		out.Failed[k] = c.Value()
	}
	return out
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// acceptLoop accepts until the listener closes. Transient errors (EMFILE,
// ECONNABORTED, listener timeouts) back off exponentially instead of
// killing the server — the net/http.Server discipline.
func (s *Server) acceptLoop() {
	defer close(s.loopDone)
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff < time.Second {
				backoff *= 2
			}
			s.acceptRetries.Inc()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			s.logf("live: accept: %v; retrying in %v", err, backoff)
			// A stopped timer (not time.After) so a Shutdown racing the
			// backoff sleep doesn't strand a timer goroutine for up to a
			// second after the loop exits.
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-s.shutdown:
				t.Stop()
				return
			}
			continue
		}
		backoff = 0
		// Connection limiter: block further accepts while MaxConns
		// handshakes are in flight. Selectable against shutdown so a
		// saturated server still drains promptly.
		select {
		case s.sem <- struct{}{}:
		case <-s.shutdown:
			conn.Close()
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			<-s.sem
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Inc()
		s.inflight.Add(1)
		go s.handle(conn)
	}
}

// handle runs one connection's handshake under its deadline.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() { <-s.sem }()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.inflight.Add(-1)
		conn.Close()
	}()

	// The deadline covers the whole exchange: a peer that stalls mid-flight
	// unblocks the read and frees the slot instead of leaking a goroutine.
	conn.SetDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	t0 := time.Now()
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil) // drop the conn reference before pooling
		readerPool.Put(br)
	}()
	srv, err := tls13.ServerHandshake(bufferedConn{r: br, Writer: conn}, s.cfg)
	if err != nil {
		class := Classify(err)
		s.failedCounter(class).Inc()
		s.logf("live: %s: handshake failed (%s): %v", conn.RemoteAddr(), class, err)
		return
	}
	s.hsDur.Observe(time.Since(t0))
	resumed := srv.ResumedSession()
	s.completed.Inc()
	if resumed {
		s.resumed.Inc()
	}

	if s.opts.IssueTickets && !resumed {
		flight, _, err := srv.SessionTicket()
		if err == nil {
			err = tls13.WriteRecords(conn, flight)
		}
		if err != nil {
			// Not a handshake failure: the handshake itself completed; the
			// client may simply have closed before the ticket landed.
			s.ticketErrs.Inc()
		}
	}
}

// Shutdown drains the runtime: it stops accepting, waits up to grace for
// in-flight handshakes to finish, then force-closes stragglers. It returns
// nil on a clean drain and an error naming the connections it had to cut.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.shutdown)
	}
	s.mu.Unlock()
	s.draining.Set(1)
	s.ln.Close()
	<-s.loopDone // no wg.Add can race the Wait below once the loop exited

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	err := func() error {
		select {
		case <-done:
			return nil
		case <-time.After(grace):
			s.mu.Lock()
			n := len(s.conns)
			for conn := range s.conns {
				conn.Close()
			}
			s.mu.Unlock()
			<-done
			return fmt.Errorf("live: drain timed out after %v; force-closed %d in-flight connections", grace, n)
		}
	}()
	if s.httpSrv != nil {
		// Close the listener and wait for the Serve goroutine to return, so
		// a Shutdown caller observes no runtime goroutines left behind.
		s.httpSrv.Close()
		<-s.metricsDone
	}
	return err
}
