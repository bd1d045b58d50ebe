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
// kyber768/dilithium3 server against a client fleet, full handshakes only.
// Every handshake must succeed on both ends.
func TestE2EPrecomputedFullHandshakes(t *testing.T) {
	srv, cfg := startPQLive(t)
	sched := NewSchedule(7, DistUniform, 100, 400*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched,
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
	if res.Completed != res.Started {
		t.Errorf("completed %d of %d", res.Completed, res.Started)
	}
	if c := srv.Counters(); c.Completed != res.Completed || c.FailedTotal() != 0 {
		t.Errorf("server completed %d failed %d, client completed %d",
			c.Completed, c.FailedTotal(), res.Completed)
	}
	// The schedule the run executed is reproducible: an identically
	// parameterized schedule digests to the same plan (what live-smoke
	// asserts across separate processes).
	if got, want := sched.Digest(), NewSchedule(7, DistUniform, 100, 400*time.Millisecond).Digest(); got != want {
		t.Errorf("schedule digest not reproducible: %s vs %s", got, want)
	}
}

// TestE2EPrecomputedResumption checks the same pairing against the
// resumption path: with tickets enabled, the priming handshake is the only
// full one, and every scheduled handshake resumes.
func TestE2EPrecomputedResumption(t *testing.T) {
	srv, cfg := startPQLive(t)
	sched := NewSchedule(11, DistExponential, 100, 300*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched,
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
	if res.Resumed != res.Completed {
		t.Errorf("resumed %d of %d completions, want all", res.Resumed, res.Completed)
	}
	// Only the priming handshake was a full one.
	if c := srv.Counters(); c.Completed != res.Completed+1 || c.Resumed != res.Completed {
		t.Errorf("server completed %d (%d resumed), want %d (%d resumed)",
			c.Completed, c.Resumed, res.Completed+1, res.Completed)
	}
}
