package loadgen

import (
	"net"
	"testing"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

// startLive boots a live server for the classical suite (fast enough to
// run a few dozen handshakes inside a unit test).
func startLive(t *testing.T, issueTickets bool) (*live.Server, *tls13.Config) {
	t.Helper()
	creds, err := harness.CredentialsFor("ecdsa-p256", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := live.Serve(ln, live.Options{
		Config: &tls13.Config{
			KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example",
			Chain: creds.Chain, PrivateKey: creds.Priv,
		},
		IssueTickets: issueTickets,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return srv, &tls13.Config{
		KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example", Roots: creds.Roots,
	}
}

// TestRunFullHandshakes drives a short closed-loop run end to end and
// checks the result's accounting invariants.
func TestRunFullHandshakes(t *testing.T) {
	srv, cfg := startLive(t, false)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Handshakes: 50, Conns: 4,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if res.Failed != 0 {
		t.Fatalf("failures on loopback: %v", res.Errors)
	}
	if res.Completed != 50 || res.Warmup != 5 {
		t.Errorf("completed %d + warmup %d, want 50 + 5", res.Completed, res.Warmup)
	}
	if res.Hist.Count() != res.Completed {
		t.Errorf("histogram holds %d, want completed %d", res.Hist.Count(), res.Completed)
	}
	if res.Resumed != 0 {
		t.Errorf("resumed %d without -resume", res.Resumed)
	}
	if res.Rate() <= 0 {
		t.Error("rate should be positive")
	}
	p50, p99 := res.Hist.Quantile(0.50), res.Hist.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles not sane: p50 %v p99 %v", p50, p99)
	}
	if c := srv.Counters(); c.Completed != res.Completed+res.Warmup {
		t.Errorf("server completed %d, client completed %d + warmup %d", c.Completed, res.Completed, res.Warmup)
	}
}

// TestRunResumed checks the Resume path: one priming handshake, then every
// handshake redeems a ticket from the shared store.
func TestRunResumed(t *testing.T) {
	srv, cfg := startLive(t, true)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Handshakes: 30, Conns: 2, Resume: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures on loopback: %v", res.Errors)
	}
	if res.Completed != 30 || res.Resumed != res.Completed {
		t.Errorf("resumed %d of %d completions, want all of 30", res.Resumed, res.Completed)
	}
	all := res.Completed + res.Warmup
	c := srv.Counters()
	if c.Completed != all+1 { // +1 for the priming handshake
		t.Errorf("server completed %d, want %d", c.Completed, all+1)
	}
	if c.Resumed != all {
		t.Errorf("server resumed %d, want %d", c.Resumed, all)
	}
	ts := srv.TicketStats()
	if ts.Issued != 1 || ts.Redeemed != all || ts.Rejected != 0 {
		t.Errorf("ticket stats %+v, want 1 issued, %d redeemed, 0 rejected", ts, all)
	}
}

// TestRunOneConnSerializes pins the closed loop: one client runs its
// handshakes back to back, so their latencies fit inside the run.
func TestRunOneConnSerializes(t *testing.T) {
	srv, cfg := startLive(t, false)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Handshakes: 20, Conns: 1,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Failed != 0 {
		t.Fatalf("failures on loopback: %v", res.Errors)
	}
	if res.Hist.Sum() > res.Elapsed {
		t.Errorf("latencies sum to %v in a %v run: handshakes overlapped", res.Hist.Sum(), res.Elapsed)
	}
	if c := srv.Counters(); c.Completed != res.Completed+res.Warmup {
		t.Errorf("server completed %d, client completed %d + warmup %d", c.Completed, res.Completed, res.Warmup)
	}
}

// TestRunRejectsBadOptions covers the setup-error paths.
func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{Config: &tls13.Config{}}); err == nil {
		t.Error("zero handshakes accepted")
	}
	if _, err := Run(Options{Handshakes: 10}); err == nil {
		t.Error("nil config accepted")
	}
	// An unreachable address with Resume fails at priming, before any load.
	cfg := &tls13.Config{KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "x"}
	if _, err := Run(Options{
		Addr: "127.0.0.1:1", Config: cfg, Handshakes: 10, Resume: true,
		HandshakeTimeout: 200 * time.Millisecond,
	}); err == nil {
		t.Error("unreachable priming target accepted")
	}
}
