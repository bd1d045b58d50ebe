package loadgen

import (
	"net"
	"testing"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

// startPQLive boots a live server for the paper's kyber768/dilithium3 suite
// in its default configuration, where CertificateVerify is signed through
// the runtime's precomputed signing context.
func startPQLive(t *testing.T) (*live.Server, *tls13.Config) {
	t.Helper()
	creds, err := harness.CredentialsFor("dilithium3", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := live.Serve(ln, live.Options{
		Config: &tls13.Config{
			KEMName: "kyber768", SigName: "dilithium3", ServerName: "server.example",
			Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
		},
		IssueTickets: true,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return srv, &tls13.Config{
		KEMName: "kyber768", SigName: "dilithium3", ServerName: "server.example", Roots: creds.Roots,
	}
}

// TestE2EPrecomputedFullHandshakes is the end-to-end contract of the
// precomputed signing context over real sockets: a default
// kyber768/dilithium3 server against concurrent clients, full handshakes
// only. Every handshake must succeed on both ends.
func TestE2EPrecomputedFullHandshakes(t *testing.T) {
	srv, cfg := startPQLive(t)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Handshakes: 40, Conns: 4,
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
	if res.Completed != 40 || res.Warmup != 4 {
		t.Errorf("completed %d + warmup %d, want 40 + 4", res.Completed, res.Warmup)
	}
	if c := srv.Counters(); c.Completed != res.Completed+res.Warmup || c.FailedTotal() != 0 {
		t.Errorf("server completed %d failed %d, client completed %d + warmup %d",
			c.Completed, c.FailedTotal(), res.Completed, res.Warmup)
	}
}

// TestE2EPrecomputedResumption checks the same pairing against the
// resumption path: with tickets enabled, the priming handshake is the only
// full one, and every other handshake resumes.
func TestE2EPrecomputedResumption(t *testing.T) {
	srv, cfg := startPQLive(t)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Handshakes: 30, Conns: 2,
		Resume: true,
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
	// Only the priming handshake was a full one.
	all := res.Completed + res.Warmup
	if c := srv.Counters(); c.Completed != all+1 || c.Resumed != all {
		t.Errorf("server completed %d (%d resumed), want %d (%d resumed)",
			c.Completed, c.Resumed, all+1, all)
	}
}
