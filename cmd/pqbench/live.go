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
// closed-loop clients, and renders the measured cell next to the cost-model
// prediction for the same (KA, SA, buffer-policy, resumption) grid point.
// Unlike every other subcommand, the latencies here are real wall-clock
// measurements of this host.
func runLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ExitOnError)
	kemName := fs.String("kem", "kyber768", "key agreement (see pqbench list)")
	sigName := fs.String("sig", "dilithium3", "certificate signature algorithm")
	buffer := fs.String("buffer", "immediate", "server flight buffering: default|immediate")
	resume := fs.Bool("resume", false, "measure PSK-resumed handshakes (one full handshake primes the ticket)")
	n := fs.Int("n", 400, "measured handshakes (a further tenth run first as warmup)")
	conns := fs.Int("conns", 1, "concurrent closed-loop clients")
	hsTimeout := fs.Duration("timeout", 10*time.Second, "per-connection handshake deadline")
	samples := fs.Int("samples", 5, "modeled-campaign samples for the prediction column")
	metrics := fs.String("metrics", "", "serve Prometheus /metrics + /healthz on this address for the run (e.g. 127.0.0.1:9090)")
	fs.Parse(args)

	policy, err := tls13.ParseBufferPolicy(*buffer)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(2)
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

	fmt.Printf("pqbench live: %s + %s over loopback (%s buffering, %d handshakes from %d closed-loop clients)\n",
		*kemName, *sigName, *buffer, *n, *conns)

	res, err := loadgen.Run(loadgen.Options{
		Addr:             srv.Addr().String(),
		Config:           &tls13.Config{KEMName: *kemName, SigName: *sigName, ServerName: "server.example", Roots: creds.Roots},
		Handshakes:       *n,
		Conns:            *conns,
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
	})
	if err != nil {
		return err
	}

	row := harness.LiveRow{
		KEM: *kemName, Sig: *sigName, Resumed: *resume,
		HSRate:    res.Rate(),
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

	fmt.Printf("client: completed %d (%d warmup discarded), failed %d\n",
		res.Completed, res.Warmup, res.Failed)
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
