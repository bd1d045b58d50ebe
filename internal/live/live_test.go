package live_test

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/tls13"
)

// startServer boots a live runtime for one suite on a loopback listener and
// returns it with the matching client template.
func startServer(t *testing.T, kem, sig string, opts live.Options) (*live.Server, *tls13.Config) {
	t.Helper()
	creds, err := harness.CredentialsFor(sig, 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	opts.Config = &tls13.Config{
		KEMName: kem, SigName: sig, ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := live.Serve(ln, opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	cliCfg := &tls13.Config{
		KEMName: kem, SigName: sig, ServerName: "server.example", Roots: creds.Roots,
	}
	return srv, cliCfg
}

// TestLoopbackFullAndResumed is the subsystem's end-to-end contract over
// real sockets (not tls13 pipes): a full handshake completes, its ticket —
// sealed by the shared store on one connection — resumes the session on a
// second connection, and the counters record all of it. One classical and
// one post-quantum suite.
func TestLoopbackFullAndResumed(t *testing.T) {
	suites := []struct{ kem, sig string }{
		{"x25519", "ecdsa-p256"},
		{"kyber768", "dilithium3"},
	}
	for _, suite := range suites {
		t.Run(suite.kem+"_"+suite.sig, func(t *testing.T) {
			srv, cliCfg := startServer(t, suite.kem, suite.sig, live.Options{IssueTickets: true})
			addr := srv.Addr().String()

			// Full handshake on connection 1, collecting the ticket.
			sess, err := loadgen.Prime(addr, cliCfg, 30*time.Second)
			if err != nil {
				t.Fatalf("full handshake: %v", err)
			}
			if sess.KEMName != suite.kem {
				t.Errorf("session bound to %q, want %q", sess.KEMName, suite.kem)
			}

			// Resumed handshake on a brand-new TCP connection.
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(30 * time.Second))
			cfg := *cliCfg
			cfg.Session = sess
			cli, err := tls13.ClientHandshake(conn, &cfg)
			if err != nil {
				t.Fatalf("resumed handshake: %v", err)
			}
			if !cli.Done() {
				t.Fatal("resumed client not done")
			}
			if cli.ServerCert != nil {
				t.Error("resumed handshake carried a certificate; expected the PSK flow")
			}

			if err := srv.Shutdown(10 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
			c := srv.Counters()
			if c.Completed != 2 || c.Resumed != 1 {
				t.Errorf("counters: completed %d resumed %d, want 2/1", c.Completed, c.Resumed)
			}
			if c.FailedTotal() != 0 {
				t.Errorf("failures recorded: %v", c.Failed)
			}
			ts := srv.TicketStats()
			if ts.Issued != 1 || ts.Redeemed != 1 || ts.Rejected != 0 {
				t.Errorf("ticket stats %+v, want issued/redeemed 1/1, rejected 0", ts)
			}
		})
	}
}

// TestHandshakeDeadline verifies a stalled peer cannot hold a connection
// slot: the server's per-connection deadline fires and the failure is
// classified as a timeout.
func TestHandshakeDeadline(t *testing.T) {
	srv, _ := startServer(t, "x25519", "ecdsa-p256", live.Options{
		HandshakeTimeout: 150 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Send nothing: the server is stuck reading the ClientHello.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Counters().Failed[live.ClassTimeout] > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.Counters().Failed[live.ClassTimeout]; got != 1 {
		t.Fatalf("timeout failures = %d, want 1", got)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestOversizedClientHello checks the server's ClientHello cap on a real
// socket: a peer declaring a 16 MiB ClientHello is refused with an alert
// after one record, and the failure is counted as a protocol error.
func TestOversizedClientHello(t *testing.T) {
	srv, _ := startServer(t, "x25519", "ecdsa-p256", live.Options{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := tls13.Record{Type: tls13.RecordHandshake, Payload: []byte{1, 0xff, 0xff, 0xff, 0, 0, 0, 0}}
	if err := tls13.WriteRecords(conn, []tls13.Record{hello}); err != nil {
		t.Fatalf("write: %v", err)
	}
	rec, err := tls13.ReadRecord(conn)
	if err != nil || rec.Type != tls13.RecordAlert || len(rec.Payload) != 2 || rec.Payload[1] != tls13.AlertIllegalParameter {
		t.Errorf("server answered %+v (%v), want an illegal_parameter alert", rec, err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := srv.Counters().Failed[live.ClassProtocol]; got != 1 {
		t.Errorf("protocol failures = %d, want 1", got)
	}
}

// flakyListener fails its first Accept calls with a transient net.Error —
// the condition that used to log.Fatal the old accept loop.
type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	failsLeft int
}

type tempErr struct{}

func (tempErr) Error() string   { return "synthetic transient accept error" }
func (tempErr) Timeout() bool   { return true }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.failsLeft > 0 {
		l.failsLeft--
		l.mu.Unlock()
		return nil, tempErr{}
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestAcceptBackoff verifies transient Accept errors are survived with
// backoff: the loop keeps serving and counts the retries.
func TestAcceptBackoff(t *testing.T) {
	creds, err := harness.CredentialsFor("ecdsa-p256", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var logs strings.Builder
	var logMu sync.Mutex
	srv, err := live.Serve(&flakyListener{Listener: inner, failsLeft: 2}, live.Options{
		Config: &tls13.Config{
			KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example",
			Chain: creds.Chain, PrivateKey: creds.Priv,
		},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs.WriteString(format)
		},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The two synthetic failures burn ~15ms of backoff, then real accepts
	// resume and this handshake goes through.
	cliCfg := &tls13.Config{
		KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example", Roots: creds.Roots,
	}
	conn, err := net.DialTimeout("tcp", inner.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := tls13.ClientHandshake(conn, cliCfg); err != nil {
		t.Fatalf("handshake after transient accept errors: %v", err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c := srv.Counters()
	if c.AcceptRetries != 2 {
		t.Errorf("accept retries = %d, want 2", c.AcceptRetries)
	}
	if c.Completed != 1 {
		t.Errorf("completed = %d, want 1", c.Completed)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "retrying") {
		t.Error("accept retry was not logged")
	}
}

// stuckListener always fails Accept with a transient error, pinning the
// accept loop inside its backoff sleep.
type stuckListener struct {
	net.Listener
}

func (l *stuckListener) Accept() (net.Conn, error) { return nil, tempErr{} }

// TestShutdownMidBackoffNoLeak is the leak regression for Close racing the
// accept-retry sleep: Shutdown during the backoff window must return
// promptly and leave no runtime goroutines (accept loop, metrics listener)
// behind.
func TestShutdownMidBackoffNoLeak(t *testing.T) {
	creds, err := harness.CredentialsFor("ecdsa-p256", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	cfg := &tls13.Config{
		KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv,
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		inner, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv, err := live.Serve(&stuckListener{Listener: inner}, live.Options{
			Config:      cfg,
			MetricsAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		// Give the loop time to hit the error path and enter its backoff
		// sleep, then race Shutdown against it.
		time.Sleep(20 * time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(5 * time.Second) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown hung while the accept loop was mid-backoff")
		}
		if srv.Counters().AcceptRetries == 0 {
			t.Error("test never reached the backoff path")
		}
	}
	// The accept-loop and metrics goroutines must all be gone.
	waitGoroutines(t, before)
}

// TestShutdownIdempotent checks Shutdown can be called twice without
// deadlocking or panicking, and that it closes the listener.
func TestShutdownIdempotent(t *testing.T) {
	srv, _ := startServer(t, "x25519", "ecdsa-p256", live.Options{})
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if conn, err := net.DialTimeout("tcp", srv.Addr().String(), 500*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting after shutdown")
	}
}

// TestStoreSharedAcrossRuntimes checks the ticket-store plumbing end to
// end: two separate runtimes constructed over the same TicketKey resume
// each other's sessions, the property a multi-instance deployment needs.
func TestStoreSharedAcrossRuntimes(t *testing.T) {
	key := [16]byte{'s', 'h', 'a', 'r', 'e', 'd', '-', 's', 't', 'e', 'k', '-', 't', 'e', 's', 't'}
	creds, err := harness.CredentialsFor("ecdsa-p256", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	mk := func() *live.Server {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv, err := live.Serve(ln, live.Options{
			Config: &tls13.Config{
				KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example",
				Chain: creds.Chain, PrivateKey: creds.Priv, TicketKey: &key,
			},
			IssueTickets: true,
		})
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		return srv
	}
	srvA, srvB := mk(), mk()
	defer srvA.Shutdown(5 * time.Second)
	defer srvB.Shutdown(5 * time.Second)

	cliCfg := &tls13.Config{
		KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example", Roots: creds.Roots,
	}
	sess, err := loadgen.Prime(srvA.Addr().String(), cliCfg, 30*time.Second)
	if err != nil {
		t.Fatalf("priming on A: %v", err)
	}
	conn, err := net.Dial("tcp", srvB.Addr().String())
	if err != nil {
		t.Fatalf("dial B: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	cfg := *cliCfg
	cfg.Session = sess
	cli, err := tls13.ClientHandshake(conn, &cfg)
	if err != nil {
		t.Fatalf("ticket from A did not resume on B: %v", err)
	}
	if cli.ServerCert != nil {
		t.Error("handshake on B carried a certificate; expected the PSK flow")
	}
	// The client returns once its Finished is written; drain B so its
	// counters reflect the completed handshake before asserting.
	if err := srvB.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain B: %v", err)
	}
	if got := srvB.Counters(); got.Resumed != 1 {
		t.Errorf("B resumed = %d, want 1", got.Resumed)
	}
}

// TestConcurrentSnapshots hammers the runtime with handshakes while
// continuously taking Counters snapshots and scraping the registry: under
// -race this proves no snapshot can observe a torn read (the old
// mutex-copied struct let FailedTotal race the map copy).
func TestConcurrentSnapshots(t *testing.T) {
	srv, cliCfg := startServer(t, "x25519", "ecdsa-p256", live.Options{
		IssueTickets: true,
		MetricsAddr:  "127.0.0.1:0",
		PhaseMetrics: true,
	})
	addr := srv.Addr().String()

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(2)
	go func() { // snapshot reader
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := srv.Counters()
			if c.FailedTotal() > c.Accepted {
				t.Error("snapshot inconsistency: more failures than accepts")
				return
			}
		}
	}()
	go func() { // registry scraper
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := srv.Registry().WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
		}
	}()

	const clients = 8
	var hsWG sync.WaitGroup
	for i := 0; i < clients; i++ {
		hsWG.Add(1)
		go func() {
			defer hsWG.Done()
			for j := 0; j < 4; j++ {
				if _, err := loadgen.Prime(addr, cliCfg, 30*time.Second); err != nil {
					t.Errorf("handshake: %v", err)
					return
				}
			}
		}()
	}
	hsWG.Wait()
	close(stop)
	snapWG.Wait()

	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c := srv.Counters()
	if want := uint64(clients * 4); c.Completed != want {
		t.Errorf("completed %d, want %d", c.Completed, want)
	}
	var sb strings.Builder
	if err := srv.Registry().WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, family := range []string{
		live.MetricHandshakes, live.MetricInflight, live.MetricDraining,
		live.MetricHSDuration, live.MetricTicketsIssued,
	} {
		if !strings.Contains(sb.String(), "# TYPE "+family+" ") {
			t.Errorf("exposition missing family %s", family)
		}
	}
	if !strings.Contains(sb.String(), live.MetricDraining+" 1") {
		t.Errorf("draining gauge not set after Shutdown:\n%s", sb.String())
	}
}
