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
// drive at a few hundred arrivals/second inside a unit test).
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

// TestRunFullHandshakes drives a short open-loop run end to end and checks
// the result's accounting invariants.
func TestRunFullHandshakes(t *testing.T) {
	srv, cfg := startLive(t, false)
	sched := NewSchedule(3, DistUniform, 200, 500*time.Millisecond)
	warmup := 100 * time.Millisecond
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched, Warmup: warmup,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if res.Offered != uint64(len(sched.Offsets)) || res.Started != res.Offered {
		t.Errorf("offered/started %d/%d, want both %d", res.Offered, res.Started, len(sched.Offsets))
	}
	if res.Failed != 0 {
		t.Fatalf("failures on loopback: %v", res.Errors)
	}
	if res.Completed != res.Started {
		t.Errorf("completed %d, want %d", res.Completed, res.Started)
	}
	if res.Resumed != 0 {
		t.Errorf("resumed %d without -resume", res.Resumed)
	}
	if got := res.Hist.Count() + res.Warmup; got != res.Completed {
		t.Errorf("histogram (%d) + warmup (%d) = %d, want completed %d",
			res.Hist.Count(), res.Warmup, got, res.Completed)
	}
	if res.Warmup == 0 {
		t.Error("no handshakes were discarded as warmup despite a warmup window")
	}
	if res.Rate(warmup) <= 0 {
		t.Error("rate should be positive")
	}
	p50, p99 := res.Hist.Quantile(0.50), res.Hist.Quantile(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles not sane: p50 %v p99 %v", p50, p99)
	}
	if c := srv.Counters(); c.Completed != res.Completed {
		t.Errorf("server completed %d, client completed %d", c.Completed, res.Completed)
	}
}

// TestRunResumed checks the Resume path: one priming handshake, then every
// scheduled handshake redeems a ticket from the shared store.
func TestRunResumed(t *testing.T) {
	srv, cfg := startLive(t, true)
	sched := NewSchedule(4, DistExponential, 100, 300*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched, Resume: true,
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
	c := srv.Counters()
	if c.Completed != res.Completed+1 { // +1 for the priming handshake
		t.Errorf("server completed %d, want %d", c.Completed, res.Completed+1)
	}
	if c.Resumed != res.Completed {
		t.Errorf("server resumed %d, want %d", c.Resumed, res.Completed)
	}
	ts := srv.TicketStats()
	if ts.Issued != 1 || ts.Redeemed != res.Completed || ts.Rejected != 0 {
		t.Errorf("ticket stats %+v, want 1 issued, %d redeemed, 0 rejected", ts, res.Completed)
	}
}

// TestRunSaturatedPoolWaits pins the limiter path: with one slot and
// arrivals denser than one handshake can serve, every arrival still starts
// and completes — saturated arrivals wait, they are not shed — and the
// wait shows up as start lag.
func TestRunSaturatedPoolWaits(t *testing.T) {
	srv, cfg := startLive(t, false)
	sched := NewSchedule(5, DistUniform, 2000, 50*time.Millisecond)
	res, err := Run(Options{
		Addr: srv.Addr().String(), Config: cfg, Schedule: sched, MaxConcurrent: 1,
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
	if res.Started != res.Offered || res.Completed != res.Offered {
		t.Errorf("offered %d, started %d, completed %d; want all equal", res.Offered, res.Started, res.Completed)
	}
	if res.MaxLag <= 0 {
		t.Errorf("max lag %v with one slot under a dense schedule, want > 0", res.MaxLag)
	}
	// One slot serializes the handshakes, so their latencies fit in the run.
	if res.Hist.Sum() > res.Elapsed {
		t.Errorf("latencies sum to %v in a %v run: handshakes overlapped", res.Hist.Sum(), res.Elapsed)
	}
	if c := srv.Counters(); c.Completed != res.Completed {
		t.Errorf("server completed %d, client completed %d", c.Completed, res.Completed)
	}
}

// TestRunRejectsBadOptions covers the setup-error paths.
func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{Config: &tls13.Config{}}); err == nil {
		t.Error("empty schedule accepted")
	}
	sched := NewSchedule(1, DistUniform, 100, 100*time.Millisecond)
	if _, err := Run(Options{Schedule: sched}); err == nil {
		t.Error("nil config accepted")
	}
	// An unreachable address with Resume fails at priming, before any load.
	cfg := &tls13.Config{KEMName: "x25519", SigName: "ecdsa-p256", ServerName: "x"}
	if _, err := Run(Options{
		Addr: "127.0.0.1:1", Config: cfg, Schedule: sched, Resume: true,
		DialTimeout: 200 * time.Millisecond,
	}); err == nil {
		t.Error("unreachable priming target accepted")
	}
}
