package live_test

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/tls13"
)

// TestShardedServe drives concurrent full + resumed handshakes against a
// multi-shard runtime: connections land on different shards, tickets issued
// on one shard resume on another (one shared store), and the merged
// counters account for every handshake exactly once.
func TestShardedServe(t *testing.T) {
	creds, err := harness.CredentialsFor("ecdsa-p256", 1)
	if err != nil {
		t.Fatalf("credentials: %v", err)
	}
	srvCfg := &tls13.Config{
		KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
	}
	const shards = 3
	ss, err := live.ServeSharded("127.0.0.1:0", live.Options{
		Config: srvCfg, IssueTickets: true,
	}, shards)
	if err != nil {
		t.Fatalf("serve sharded: %v", err)
	}
	if got := ss.Shards(); got != shards {
		t.Fatalf("shards = %d, want %d", got, shards)
	}
	addr := ss.Addr().String()
	cliCfg := &tls13.Config{
		KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "server.example", Roots: creds.Roots,
	}

	handshake := func(cfg *tls13.Config) (*tls13.Session, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		cli, err := tls13.ClientHandshake(conn, cfg)
		if err != nil {
			return nil, err
		}
		flight, err := tls13.ReadRecord(conn)
		if err != nil {
			return nil, err
		}
		return cli.ProcessTicket([]tls13.Record{flight})
	}

	// A burst of concurrent full handshakes spread across the shards.
	const full = 12
	sessions := make([]*tls13.Session, full)
	var wg sync.WaitGroup
	errs := make([]error, full)
	for i := 0; i < full; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], errs[i] = handshake(cliCfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("full handshake %d: %v", i, err)
		}
	}

	// Resume each ticket on a fresh connection; the kernel (or the shared
	// accept queue) is free to route it to any shard.
	for i, sess := range sessions {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		cfg := *cliCfg
		cfg.Session = sess
		cli, err := tls13.ClientHandshake(conn, &cfg)
		conn.Close()
		if err != nil {
			t.Fatalf("resumed handshake %d: %v", i, err)
		}
		if cli.ServerCert != nil {
			t.Fatalf("resumed handshake %d carried a certificate", i)
		}
	}

	if err := ss.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c := ss.Counters()
	if c.Completed != 2*full || c.Resumed != full {
		t.Errorf("counters: completed %d resumed %d, want %d/%d", c.Completed, c.Resumed, 2*full, full)
	}
	if c.FailedTotal() != 0 {
		t.Errorf("failures recorded: %v", c.Failed)
	}
	ts := ss.TicketStats()
	if ts.Issued != full || ts.Redeemed != full {
		t.Errorf("ticket stats %+v, want issued/redeemed %d/%d", ts, full, full)
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
