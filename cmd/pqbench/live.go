package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/tls13"
)

// runLive is the `pqbench live` subcommand: it starts the internal/live
// server runtime on a loopback listener, drives it with internal/loadgen's
// open-loop schedule, and renders the measured cell next to the cost-model
// prediction for the same (KA, SA, buffer-policy, resumption) grid point.
// Unlike every other subcommand, the latencies here are real wall-clock
// measurements of this host — only the arrival schedule is deterministic.
func runLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ExitOnError)
	kemName := fs.String("kem", "kyber768", "key agreement (see pqbench list)")
	sigName := fs.String("sig", "dilithium3", "certificate signature algorithm")
	buffer := fs.String("buffer", "immediate", "server flight buffering: default|immediate")
	resume := fs.Bool("resume", false, "measure PSK-resumed handshakes (one full handshake primes the ticket)")
	rate := fs.Float64("rate", 200, "offered load in handshakes/second (open loop)")
	duration := fs.Duration("duration", 2*time.Second, "schedule span")
	warmup := fs.Duration("warmup", 0, "discard handshakes scheduled before this offset (default duration/10)")
	dist := fs.String("dist", "exp", "inter-arrival distribution: exp|uniform")
	seed := fs.Int64("seed", 1, "arrival-schedule seed")
	conns := fs.Int("conns", 128, "max concurrent handshakes (client pool and server limiter)")
	hsTimeout := fs.Duration("timeout", 10*time.Second, "per-connection handshake deadline")
	samples := fs.Int("samples", 5, "modeled-campaign samples for the prediction column")
	metrics := fs.String("metrics", "", "serve Prometheus /metrics + /healthz on this address for the run (e.g. 127.0.0.1:9090)")
	fs.Parse(args)

	policy := tls13.BufferImmediate
	if *buffer == "default" {
		policy = tls13.BufferDefault
	}
	distVal, err := loadgen.ParseDist(*dist)
	if err != nil {
		return err
	}
	if *warmup <= 0 {
		*warmup = *duration / 10
	}

	// Server identity: same credential construction the campaigns use.
	creds, err := harness.CredentialsFor(*sigName, 1)
	if err != nil {
		return err
	}
	srvCfg := &tls13.Config{
		KEMName: *kemName, SigName: *sigName, ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: policy,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := live.Serve(ln, live.Options{
		Config:           srvCfg,
		MaxConns:         *conns,
		HandshakeTimeout: *hsTimeout,
		IssueTickets:     *resume,
		MetricsAddr:      *metrics,
		PhaseMetrics:     *metrics != "",
	})
	if err != nil {
		return err
	}
	if a := srv.MetricsAddr(); a != nil {
		fmt.Printf("metrics: http://%s/metrics (healthz on the same listener)\n", a)
	}

	sched := loadgen.NewSchedule(*seed, distVal, *rate, *duration)
	fmt.Printf("pqbench live: %s + %s over loopback (%s buffering, %s arrivals at %g/s, seed %d)\n",
		*kemName, *sigName, *buffer, distVal, *rate, *seed)
	fmt.Printf("schedule: %d arrivals over %v, digest %s (reproducible; latencies below are not)\n",
		len(sched.Offsets), *duration, sched.Digest())

	res, err := loadgen.Run(loadgen.Options{
		Addr:             srv.Addr().String(),
		Config:           &tls13.Config{KEMName: *kemName, SigName: *sigName, ServerName: "server.example", Roots: creds.Roots},
		Schedule:         sched,
		Warmup:           *warmup,
		MaxConcurrent:    *conns,
		HandshakeTimeout: *hsTimeout,
		Resume:           *resume,
	})
	if err != nil {
		srv.Shutdown(time.Second)
		return err
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
	}

	// Modeled prediction for the same grid cell (deterministic).
	campaign, err := harness.RunCampaign(harness.CampaignOptions{
		KEM: *kemName, Sig: *sigName, Link: harness.ScenarioTestbed,
		Buffer: policy, Samples: *samples, Resume: *resume,
		Timing: harness.TimingModel,
	})
	if err != nil {
		return err
	}

	row := harness.LiveRow{
		KEM: *kemName, Sig: *sigName, Resumed: *resume,
		HSRate:    res.Rate(*warmup),
		P50:       res.Hist.Quantile(0.50),
		P95:       res.Hist.Quantile(0.95),
		P99:       res.Hist.Quantile(0.99),
		Completed: res.Completed,
		Failed:    res.Failed,
		Modeled:   campaign.TotalMedian,
	}
	if err := harness.RenderLive(os.Stdout, []harness.LiveRow{row}); err != nil {
		return err
	}

	fmt.Printf("client: offered %d, completed %d (%d warmup discarded), failed %d, max start lag %v\n",
		res.Offered, res.Completed, res.Warmup, res.Failed, res.MaxLag.Round(time.Microsecond))
	if len(res.Errors) > 0 {
		classes := make([]string, 0, len(res.Errors))
		for c := range res.Errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Printf("client error[%s]: %d\n", c, res.Errors[c])
		}
	}
	c := srv.Counters()
	fmt.Printf("server: accepted %d, completed %d (%d resumed), failed %d, accept retries %d\n",
		c.Accepted, c.Completed, c.Resumed, c.FailedTotal(), c.AcceptRetries)
	if *resume {
		ts := srv.TicketStats()
		fmt.Printf("tickets: issued %d, redeemed %d, rejected %d\n", ts.Issued, ts.Redeemed, ts.Rejected)
	}
	return nil
}
