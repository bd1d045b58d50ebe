package live_test

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/sig"
	"pqtls/internal/tls13"
)

// fullHandshake dials addr and runs one full client handshake, which
// verifies the chain and the CertificateVerify signature.
func fullHandshake(t *testing.T, addr string, cfg *tls13.Config) *tls13.Client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	cli, err := tls13.ClientHandshake(conn, cfg)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if !cli.Done() {
		t.Fatal("client not done")
	}
	return cli
}

// waitGoroutines fails the test unless the goroutine count returns to
// baseline; it polls briefly to let exiting goroutines park.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDefaultSignerEveryFamily pins the default signing path: Serve with an
// untouched Options installs a signing context for the server's key, and a
// client must complete and verify a full handshake against it for one
// scheme of every signature family — the precomputed Dilithium contexts
// and the plain per-call fallback of the rest, a hybrid included.
func TestDefaultSignerEveryFamily(t *testing.T) {
	for _, name := range []string{
		"rsa:2048", "ecdsa-p256", "ed25519",
		"dilithium2", "dilithium3", "dilithium5",
		"falcon512", "sphincs128", "p256_dilithium2",
	} {
		t.Run(name, func(t *testing.T) {
			srv, cliCfg := startServer(t, "x25519", name, live.Options{})
			cli := fullHandshake(t, srv.Addr().String(), cliCfg)
			if cli.ServerCert == nil || cli.ServerCert.Algorithm != name {
				t.Errorf("server certificate %+v, want a %s key", cli.ServerCert, name)
			}
			if err := srv.Shutdown(10 * time.Second); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if c := srv.Counters(); c.Completed != 1 || c.FailedTotal() != 0 {
				t.Errorf("counters: completed %d failed %v, want 1 and none", c.Completed, c.Failed)
			}
		})
	}
}

// countingSigner signs through the scheme and counts the calls.
type countingSigner struct {
	scheme sig.Scheme
	priv   []byte
	calls  atomic.Int64
}

func (s *countingSigner) Sign(msg []byte) ([]byte, error) {
	s.calls.Add(1)
	return s.scheme.Sign(s.priv, msg)
}

// TestCallerSignerRespected checks both sides of the default: a Signer the
// caller supplies is the one that signs, and when the caller supplies none
// the runtime's own context and ticket store land on its private copy —
// the caller's Config is left as it was.
func TestCallerSignerRespected(t *testing.T) {
	creds, err := harness.CredentialsFor("dilithium2", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	cliCfg := &tls13.Config{
		KEMName: "x25519", SigName: "dilithium2", ServerName: "server.example", Roots: creds.Roots,
	}
	signer := &countingSigner{scheme: sig.MustByName("dilithium2"), priv: creds.Priv}
	for _, supplied := range []bool{true, false} {
		cfg := &tls13.Config{
			KEMName: "x25519", SigName: "dilithium2", ServerName: "server.example",
			Chain: creds.Chain, PrivateKey: creds.Priv,
		}
		if supplied {
			cfg.Signer = signer
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		srv, err := live.Serve(ln, live.Options{Config: cfg})
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
		fullHandshake(t, srv.Addr().String(), cliCfg)
		if err := srv.Shutdown(10 * time.Second); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if supplied {
			if cfg.Signer != sig.Signer(signer) {
				t.Error("Serve replaced the caller's Signer")
			}
		} else if cfg.Signer != nil || cfg.Tickets != nil {
			t.Errorf("Serve wrote into the caller's Config: Signer %v, Tickets %v", cfg.Signer, cfg.Tickets)
		}
	}
	if n := signer.calls.Load(); n != 1 {
		t.Errorf("caller's Signer signed %d handshakes, want exactly the one it was supplied for", n)
	}
}

// TestServeShutdownNoGoroutineLeak checks the runtime's lifetime: Serve,
// handshakes and Shutdown return the goroutine count to where it started,
// and so does a Serve that fails because its metrics listener cannot bind.
func TestServeShutdownNoGoroutineLeak(t *testing.T) {
	creds, err := harness.CredentialsFor("dilithium3", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	srvCfg := &tls13.Config{
		KEMName: "kyber768", SigName: "dilithium3", ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
	}
	cliCfg := &tls13.Config{
		KEMName: "kyber768", SigName: "dilithium3", ServerName: "server.example", Roots: creds.Roots,
	}
	// Occupied for the whole test, so binding it again must fail.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer taken.Close()
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv, err := live.Serve(ln, live.Options{Config: srvCfg, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i := 0; i < 4; i++ {
		fullHandshake(t, srv.Addr().String(), cliCfg)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitGoroutines(t, before)

	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if _, err := live.Serve(ln, live.Options{Config: srvCfg, MetricsAddr: taken.Addr().String()}); err == nil {
		t.Fatal("Serve succeeded with an occupied metrics address")
	}
	ln.Close() // a failed Serve never took ownership of the listener
	waitGoroutines(t, before)
}
