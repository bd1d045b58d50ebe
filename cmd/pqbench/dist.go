package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"time"

	"pqtls/internal/dist"
	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// runDistCoordinator is the `pqbench dist-coordinator` subcommand: it
// partitions one seeded arrival plan across a fleet of dist-worker
// processes, merges their streamed per-shard Results bucket-exactly, and
// renders the same Table-2-style row `pqbench live` prints — plus the
// per-worker breakdown and the merged digest. With -simulate -verify it
// also reruns the identical plan single-process and fails unless the
// distributed digest, counters, and quantiles match exactly.
func runDistCoordinator(args []string) error {
	fs := flag.NewFlagSet("dist-coordinator", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address workers connect to")
	workers := fs.Int("workers", 2, "worker quorum: the plan is split into this many shards")
	workersLocal := fs.Int("workers-local", 0, "self-spawn this many dist-worker processes (0 = expect external workers)")
	kemName := fs.String("kem", "kyber768", "key agreement (see pqbench list)")
	sigName := fs.String("sig", "dilithium3", "certificate signature algorithm")
	resume := fs.Bool("resume", false, "PSK-resumed handshakes (one priming handshake per worker)")
	simulate := fs.Bool("simulate", false, "deterministic synthetic latencies: no server, exact cross-process reproducibility")
	rate := fs.Float64("rate", 200, "offered load in handshakes/second (open loop, whole fleet)")
	duration := fs.Duration("duration", 2*time.Second, "schedule span")
	warmup := fs.Duration("warmup", 0, "discard handshakes scheduled before this offset (default duration/10)")
	distName := fs.String("dist", "exp", "inter-arrival distribution: exp|uniform")
	seed := fs.Int64("seed", 1, "arrival-schedule seed")
	conns := fs.Int("conns", 128, "max concurrent handshakes per worker")
	hsTimeout := fs.Duration("timeout", 10*time.Second, "per-connection handshake deadline")
	startDelay := fs.Duration("start-delay", 200*time.Millisecond, "worker pacing delay after Assign, absorbing assignment skew")
	joinTimeout := fs.Duration("join-timeout", 30*time.Second, "how long to wait for the worker quorum")
	hbTimeout := fs.Duration("heartbeat-timeout", 5*time.Second, "declare a silent worker dead after this long and reassign its shards")
	addr := fs.String("addr", "", "target server address for real runs (empty = start a loopback server here)")
	verify := fs.Bool("verify", false, "with -simulate: rerun single-process and require exact digest/counter/quantile equality")
	killAfter := fs.Duration("kill-worker-after", 0, "fault-injection: SIGKILL one local worker after this delay and require a reassignment (needs -workers-local)")
	metrics := fs.String("metrics", "", "serve Prometheus /metrics + /healthz on this address for the run")
	window := fs.Duration("window", 0, "windowed telemetry interval: workers stream per-window snapshots, the coordinator prints fleet-rollup progress lines and -verify pins the merged timeline (0 = off)")
	timelinePath := fs.String("timeline", "", "write the merged fleet timeline artifacts to this path base (.jsonl + .csv; implies -window 1s if unset)")
	fs.Parse(args)
	*window = resolveWindow(*window, *timelinePath)

	if *workers < 1 {
		return fmt.Errorf("dist-coordinator: -workers %d must be at least 1", *workers)
	}
	if *verify && !*simulate {
		return errors.New("dist-coordinator: -verify requires -simulate (real latencies are not reproducible)")
	}
	if *killAfter > 0 && *workersLocal < 2 {
		return errors.New("dist-coordinator: -kill-worker-after needs -workers-local >= 2 (a survivor must take the shard)")
	}
	distVal, err := loadgen.ParseDist(*distName)
	if err != nil {
		return err
	}
	if *warmup <= 0 {
		*warmup = *duration / 10
	}

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	reg := obs.NewRegistry()

	// Real runs need a server under test; by default the coordinator hosts
	// one on loopback, exactly as `pqbench live` does.
	job := dist.JobSpec{
		KEM: *kemName, Sig: *sigName, Addr: *addr,
		Simulate: *simulate, Resume: *resume,
		Warmup: *warmup, MaxConcurrent: *conns,
		HandshakeTimeout: *hsTimeout, StartDelay: *startDelay,
		WindowInterval: *window,
	}
	var srv *live.Server
	if !*simulate && *addr == "" {
		creds, err := harness.CredentialsFor(*sigName, 1)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv, err = live.Serve(ln, live.Options{
			Config: &tls13.Config{
				KEMName: *kemName, SigName: *sigName, ServerName: "server.example",
				Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
			},
			MaxConns:         *conns * *workers,
			HandshakeTimeout: *hsTimeout,
			IssueTickets:     *resume,
		})
		if err != nil {
			return err
		}
		job.Addr = srv.Addr().String()
		defer srv.Shutdown(5 * time.Second)
	}

	coord, err := dist.NewCoordinator(*listen, dist.CoordinatorOptions{
		Workers: *workers, JoinTimeout: *joinTimeout, HeartbeatTimeout: *hbTimeout,
		Registry: reg, MetricsAddr: *metrics, Logf: logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	if a := coord.MetricsAddr(); a != nil {
		fmt.Printf("metrics: http://%s/metrics (healthz on the same listener)\n", a)
	}
	fmt.Printf("pqbench dist-coordinator: listening on %s (quorum %d)\n", coord.Addr(), *workers)

	// Self-spawned local workers re-exec this binary as dist-worker; their
	// heartbeat interval is derived from the coordinator's timeout so a
	// short fault-injection timeout keeps the watchdog responsive.
	var procs []*exec.Cmd
	if *workersLocal > 0 {
		hbInterval := *hbTimeout / 5
		if hbInterval < 20*time.Millisecond {
			hbInterval = 20 * time.Millisecond
		}
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		for i := 0; i < *workersLocal; i++ {
			cmd := exec.Command(exe, "dist-worker",
				"-coordinator", coord.Addr().String(),
				"-name", fmt.Sprintf("local-%d", i),
				"-heartbeat-interval", hbInterval.String())
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("dist-coordinator: spawning local worker %d: %w", i, err)
			}
			procs = append(procs, cmd)
		}
		defer func() {
			for _, p := range procs {
				p.Process.Kill()
				p.Wait()
			}
		}()
	}
	if *killAfter > 0 {
		victim := procs[0]
		timer := time.AfterFunc(*killAfter, func() {
			logf("dist: fault injection: killing worker pid %d", victim.Process.Pid)
			victim.Process.Kill()
		})
		defer timer.Stop()
	}

	sched := loadgen.NewSchedule(*seed, distVal, *rate, *duration)
	fmt.Printf("schedule: %d arrivals over %v at %g/s (%s, seed %d), digest %s\n",
		len(sched.Offsets), *duration, *rate, distVal, *seed, sched.Digest())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopProgress := startTimelineProgress("fleet", *window, coord.FleetTimeline)
	report, err := coord.Run(ctx, job, sched)
	stopProgress()
	if err != nil {
		return err
	}

	fmt.Println("\nper-worker breakdown:")
	fmt.Println("  shard | worker       | completed | failed |   p50 ms |   p95 ms | digest")
	fmt.Println("  ------+--------------+-----------+--------+----------+----------+-----------------")
	for _, s := range report.Shards {
		fmt.Printf("  %5d | %-12s | %9d | %6d | %8s | %8s | %s\n",
			s.Shard, s.Worker, s.Result.Completed, s.Result.Failed,
			ms(s.Result.Hist.Quantile(0.50)), ms(s.Result.Hist.Quantile(0.95)), s.Result.Digest())
	}
	merged := report.Merged
	st := coord.Stats()
	fmt.Printf("\nmerged: offered %d, completed %d (%d warmup discarded), failed %d, digest %s\n",
		merged.Offered, merged.Completed, merged.Warmup, merged.Failed, merged.Digest())
	fmt.Printf("fleet: %d joined, %d lost, %d shards reassigned, %d duplicate results dropped\n",
		report.WorkersJoined, report.WorkersLost, report.Reassigned, st.DuplicateAcked)
	fmt.Printf("protocol: %d frames / %d bytes sent, %d frames / %d bytes received\n",
		st.FramesSent, st.BytesSent, st.FramesRecv, st.BytesRecv)
	if len(merged.Errors) > 0 {
		classes := make([]string, 0, len(merged.Errors))
		for c := range merged.Errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Printf("error[%s]: %d\n", c, merged.Errors[c])
		}
	}

	if *timelinePath != "" {
		if err := writeTimelineArtifacts(merged.Timeline, *timelinePath); err != nil {
			return err
		}
	}

	if !*simulate {
		// The Table-2-style row: measured quantiles next to the modeled
		// prediction for the same grid cell, as `pqbench live` renders.
		campaign, err := harness.RunCampaign(harness.CampaignOptions{
			KEM: *kemName, Sig: *sigName, Link: harness.ScenarioTestbed,
			Buffer: tls13.BufferImmediate, Samples: 5, Resume: *resume,
			Timing: harness.TimingModel,
		})
		if err != nil {
			return err
		}
		row := harness.LiveRow{
			KEM: *kemName, Sig: *sigName, Resumed: *resume,
			HSRate:    merged.Rate(*warmup),
			P50:       merged.Hist.Quantile(0.50),
			P95:       merged.Hist.Quantile(0.95),
			P99:       merged.Hist.Quantile(0.99),
			Completed: merged.Completed,
			Failed:    merged.Failed,
			Modeled:   campaign.TotalMedian,
		}
		if err := harness.RenderLive(os.Stdout, []harness.LiveRow{row}); err != nil {
			return err
		}
	}

	if *killAfter > 0 && report.Reassigned == 0 {
		return errors.New("dist-coordinator: -kill-worker-after fired but no shard was reassigned")
	}

	if *verify {
		// The determinism bar: the identical plan, split the identical
		// number of ways, run in this one process — every deterministic
		// field must match the distributed merge exactly.
		nshards := *workers
		if n := len(sched.Offsets); nshards > n {
			nshards = n
		}
		ref, err := loadgen.RunWorkers(loadgen.Options{
			Schedule: sched, Simulate: true, Warmup: *warmup, MaxConcurrent: *conns,
			WindowInterval: *window,
		}, nshards)
		if err != nil {
			return err
		}
		if got, want := merged.Digest(), ref.Digest(); got != want {
			return fmt.Errorf("dist-coordinator: VERIFY FAILED: merged digest %s != single-process %s", got, want)
		}
		if merged.Offered != ref.Offered || merged.Started != ref.Started ||
			merged.Completed != ref.Completed || merged.Failed != ref.Failed ||
			merged.Warmup != ref.Warmup {
			return fmt.Errorf("dist-coordinator: VERIFY FAILED: counters diverge: merged %+v, single-process %+v", merged, ref)
		}
		for _, q := range []float64{0.50, 0.95, 0.99} {
			if m, r := merged.Hist.Quantile(q), ref.Hist.Quantile(q); m != r {
				return fmt.Errorf("dist-coordinator: VERIFY FAILED: p%.0f %v != single-process %v", q*100, m, r)
			}
		}
		if *window > 0 {
			// Window-level determinism: the fleet's merged timeline must be
			// byte-identical to the one the unsplit single-process run built.
			if merged.Timeline == nil || ref.Timeline == nil {
				return errors.New("dist-coordinator: VERIFY FAILED: -window set but a timeline is missing")
			}
			if got, want := merged.Timeline.Digest(), ref.Timeline.Digest(); got != want {
				return fmt.Errorf("dist-coordinator: VERIFY FAILED: merged timeline digest %s != single-process %s", got, want)
			}
			fmt.Printf("verify: timeline digest %s equals single-process (window %v, %d windows)\n",
				merged.Timeline.Digest(), *window, len(merged.Timeline.Windows()))
		}
		fmt.Printf("verify: PASS — distributed digest %s equals single-process digest (counters and p50/p95/p99 exact)\n", merged.Digest())
	}

	// Graceful end of session: closing the coordinator aborts the workers,
	// which exit cleanly; reap the local ones before returning (the deferred
	// cleanup then finds nothing left to kill).
	coord.Close()
	for _, p := range procs {
		p.Wait()
	}
	return nil
}

// runDistWorker is the `pqbench dist-worker` subcommand: one load-generation
// worker that registers with a coordinator, executes every shard it is
// assigned, streams results back, and drains gracefully on SIGINT or a
// coordinator abort.
func runDistWorker(args []string) error {
	fs := flag.NewFlagSet("dist-worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "", "coordinator address (required)")
	name := fs.String("name", "", "worker name in coordinator logs and reports")
	attempts := fs.Int("connect-attempts", 5, "bounded connect retries (backoff doubles between attempts)")
	backoff := fs.Duration("connect-backoff", 250*time.Millisecond, "initial connect retry backoff")
	hbInterval := fs.Duration("heartbeat-interval", time.Second, "liveness frame cadence (keep well under the coordinator's -heartbeat-timeout)")
	metrics := fs.String("metrics", "", "serve Prometheus /metrics on this address")
	fs.Parse(args)
	if *coordinator == "" {
		return errors.New("dist-worker: -coordinator is required")
	}

	reg := obs.NewRegistry()
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return err
		}
		defer mln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go http.Serve(mln, mux)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator:       *coordinator,
		Name:              *name,
		ConnectAttempts:   *attempts,
		ConnectBackoff:    *backoff,
		HeartbeatInterval: *hbInterval,
		Registry:          reg,
		Logf:              func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
	if errors.Is(err, dist.ErrAborted) {
		// The coordinator ended the session (run complete or draining):
		// this worker's job is done.
		return nil
	}
	return err
}
