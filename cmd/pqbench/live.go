package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
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
	jsonOut := fs.Bool("json", false, "emit the run's Result on stdout in the canonical JSON encoding (the same layout the distributed protocol pins); human-readable chatter moves to stderr")
	window := fs.Duration("window", 0, "windowed telemetry interval: per-window snapshots, a live progress line, and the timeline in -json output (0 = off)")
	timelinePath := fs.String("timeline", "", "write the run's timeline artifacts to this path base (.jsonl + .csv; implies -window 1s if unset)")
	fs.Parse(args)
	*window = resolveWindow(*window, *timelinePath)

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
	// In -json mode stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = os.Stderr
	}
	if a := srv.MetricsAddr(); a != nil {
		fmt.Fprintf(out, "metrics: http://%s/metrics (healthz on the same listener)\n", a)
	}

	sched := loadgen.NewSchedule(*seed, distVal, *rate, *duration)
	fmt.Fprintf(out, "pqbench live: %s + %s over loopback (%s buffering, %s arrivals at %g/s, seed %d)\n",
		*kemName, *sigName, *buffer, distVal, *rate, *seed)
	fmt.Fprintf(out, "schedule: %d arrivals over %v, digest %s (reproducible; latencies below are not)\n",
		len(sched.Offsets), *duration, sched.Digest())

	runOpts := loadgen.Options{
		Addr:             srv.Addr().String(),
		Config:           &tls13.Config{KEMName: *kemName, SigName: *sigName, ServerName: "server.example", Roots: creds.Roots},
		Schedule:         sched,
		Warmup:           *warmup,
		MaxConcurrent:    *conns,
		HandshakeTimeout: *hsTimeout,
		Resume:           *resume,
	}
	var tl *obs.Timeline
	stopProgress := func() {}
	if *window > 0 {
		// The CLI owns the timeline so the progress printer can watch it
		// while the dispatch loop records into it.
		tl = obs.NewTimeline(*window)
		runOpts.Timeline = tl
		stopProgress = startTimelineProgress("live", *window, func() *obs.Timeline { return tl })
	}
	res, err := loadgen.Run(runOpts)
	stopProgress()
	if err != nil {
		srv.Shutdown(time.Second)
		return err
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
	}
	if *timelinePath != "" {
		if err := writeTimelineArtifacts(res.Timeline, *timelinePath); err != nil {
			return err
		}
	}

	if *jsonOut {
		// One machine-readable document: the grid coordinate, the schedule
		// fingerprint, and the Result in its canonical JSON shape.
		doc := struct {
			KEM            string          `json:"kem"`
			Sig            string          `json:"sig"`
			Buffer         string          `json:"buffer"`
			Resumed        bool            `json:"resumed"`
			Seed           int64           `json:"seed"`
			ScheduleDigest string          `json:"schedule_digest"`
			ResultDigest   string          `json:"result_digest"`
			Result         *loadgen.Result `json:"result"`
		}{*kemName, *sigName, *buffer, *resume, *seed, sched.Digest(), res.Digest(), res}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
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
