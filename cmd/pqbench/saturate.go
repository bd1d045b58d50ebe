package main

import (
	"crypto/sha256"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// runSaturate is the `pqbench saturate` subcommand: it answers "how many
// handshakes per second can this host actually do, and does the sharded
// accept path scale?" For each accept-shard count in the sweep it starts a
// ShardedServer, then climbs an offered-rate ladder — each rung a seeded
// open-loop schedule dispatched by as many loadgen workers as the server
// has shards — until achieved/offered drops below the knee threshold. The
// arrival plans are deterministic (same seed, same digests); only the
// measured rates are host-dependent.
func runSaturate(args []string) error {
	fs := flag.NewFlagSet("saturate", flag.ExitOnError)
	kemName := fs.String("kem", "kyber768", "key agreement (see pqbench list)")
	sigName := fs.String("sig", "dilithium3", "certificate signature algorithm")
	resume := fs.Bool("resume", false, "measure PSK-resumed handshakes")
	duration := fs.Duration("duration", 2*time.Second, "schedule span per ladder rung")
	warmup := fs.Duration("warmup", 0, "per-rung warmup (default duration/10)")
	dist := fs.String("dist", "exp", "inter-arrival distribution: exp|uniform")
	seed := fs.Int64("seed", 1, "arrival-schedule seed")
	startRate := fs.Float64("rate", 200, "offered load of the first ladder rung (handshakes/s)")
	growth := fs.Float64("growth", 1.5, "offered-rate multiplier between rungs")
	maxRate := fs.Float64("rate-max", 0, "stop the ladder beyond this offered rate (0 = no cap)")
	knee := fs.Float64("knee", 0.9, "achieved/offered ratio below which the ladder stops")
	maxRungs := fs.Int("rungs", 10, "maximum ladder rungs per shard count")
	shardsFlag := fs.String("shards", "", "comma-separated accept-shard counts to sweep (default 1..GOMAXPROCS)")
	conns := fs.Int("conns", 256, "max concurrent handshakes (client pool and server limiter)")
	hsTimeout := fs.Duration("timeout", 10*time.Second, "per-connection handshake deadline")
	csvPath := fs.String("csv", "", "also write one CSV row per rung to this file")
	window := fs.Duration("window", 0, "windowed telemetry interval: per-rung progress lines and peak-rung timelines (0 = off)")
	timelinePath := fs.String("timeline", "", "write each shard count's peak-rung timeline artifacts to <base>_shards<N>.{jsonl,csv} (implies -window 1s if unset)")
	fs.Parse(args)
	*window = resolveWindow(*window, *timelinePath)
	if err := validateSaturate(*startRate, *growth, *knee, *maxRate, *maxRungs, *duration); err != nil {
		return err
	}
	if *warmup <= 0 {
		*warmup = *duration / 10
	}
	distVal, err := loadgen.ParseDist(*dist)
	if err != nil {
		return err
	}
	shardCounts, warnings, err := parseShardSweep(*shardsFlag, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "pqbench:", w)
	}

	creds, err := harness.CredentialsFor(*sigName, 1)
	if err != nil {
		return err
	}
	srvCfg := &tls13.Config{
		KEMName: *kemName, SigName: *sigName, ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: tls13.BufferImmediate,
	}
	cliCfg := &tls13.Config{
		KEMName: *kemName, SigName: *sigName, ServerName: "server.example", Roots: creds.Roots,
	}

	fmt.Printf("pqbench saturate: %s + %s over loopback, shard sweep %v, ladder from %g/s ×%g (knee %.2f)\n",
		*kemName, *sigName, shardCounts, *startRate, *growth, *knee)

	type rung struct {
		shards           int
		offered          float64
		achieved         float64
		ratio            float64
		p50, p95         time.Duration
		completed, fails uint64
		digest           string
		timeline         *obs.Timeline
	}
	var rungs []rung
	peak := make(map[int]rung) // best achieved rung per shard count
	sweep := sha256.New()      // running fingerprint of every rung's arrival plan

	for _, n := range shardCounts {
		ss, err := live.ServeSharded("127.0.0.1:0", live.Options{
			Config:           srvCfg,
			MaxConns:         *conns,
			HandshakeTimeout: *hsTimeout,
			IssueTickets:     *resume,
		}, n)
		if err != nil {
			return err
		}

		offered := *startRate
		for r := 0; r < *maxRungs; r++ {
			if *maxRate > 0 && offered > *maxRate {
				break
			}
			sched := loadgen.NewSchedule(*seed, distVal, offered, *duration)
			if len(sched.Offsets) == 0 {
				break
			}
			opts := loadgen.Options{
				Addr:             ss.Addr().String(),
				Config:           cliCfg,
				Schedule:         sched,
				Warmup:           *warmup,
				MaxConcurrent:    *conns,
				HandshakeTimeout: *hsTimeout,
				Resume:           *resume,
				Amortize:         true,
			}
			stopProgress := func() {}
			if *window > 0 {
				// Each rung gets a fresh timeline (offsets restart at the
				// rung's own schedule zero) and its own progress line.
				tl := obs.NewTimeline(*window)
				opts.Timeline = tl
				stopProgress = startTimelineProgress(
					fmt.Sprintf("saturate shards=%d rung=%d", n, r), *window,
					func() *obs.Timeline { return tl })
			}
			res, err := loadgen.RunWorkers(opts, n)
			stopProgress()
			if err != nil {
				ss.Shutdown(time.Second)
				return err
			}
			achieved := res.Rate(*warmup)
			ratio := 0.0
			if offered > 0 {
				ratio = achieved / offered
			}
			rg := rung{
				shards: n, offered: offered, achieved: achieved, ratio: ratio,
				p50: res.Hist.Quantile(0.50), p95: res.Hist.Quantile(0.95),
				completed: res.Completed, fails: res.Failed, digest: sched.Digest(),
				timeline: res.Timeline,
			}
			rungs = append(rungs, rg)
			fmt.Fprintf(sweep, "%d|%s\n", n, rg.digest)
			fmt.Printf("  shards %d rung %d: offered %7.1f/s achieved %7.1f/s ratio %.3f p50 %s failed %d digest %s\n",
				n, r, offered, achieved, ratio, ms(rg.p50)+"ms", res.Failed, rg.digest)
			if best, ok := peak[n]; !ok || achieved > best.achieved {
				peak[n] = rg
			}
			if ratio < *knee {
				break // the knee: the host stopped keeping up with the plan
			}
			offered *= *growth
		}
		if err := ss.Shutdown(5 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "pqbench:", err)
		}
	}

	// The handshakes/sec-vs-cores table: one row per shard count, at the
	// rung where that configuration achieved its highest rate.
	fmt.Println("\nscaling (peak achieved rate per accept-shard count):")
	fmt.Println("  shards | offered/s | achieved/s | ratio |  p50 ms |  p95 ms | failed")
	fmt.Println("  -------+-----------+------------+-------+---------+---------+-------")
	for _, n := range shardCounts {
		p, ok := peak[n]
		if !ok {
			continue
		}
		fmt.Printf("  %6d | %9.1f | %10.1f | %5.3f | %7s | %7s | %6d\n",
			n, p.offered, p.achieved, p.ratio, ms(p.p50), ms(p.p95), p.fails)
	}
	fmt.Printf("sweep digest %x (seeded arrival plans; rates are this host's)\n",
		sweep.Sum(nil)[:8])

	if *timelinePath != "" {
		// One artifact pair per shard count, at its peak rung — the windowed
		// view of the configuration's best sustained minute.
		for _, n := range shardCounts {
			p, ok := peak[n]
			if !ok {
				continue
			}
			base := fmt.Sprintf("%s_shards%d", *timelinePath, n)
			if err := writeTimelineArtifacts(p.timeline, base); err != nil {
				return err
			}
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		w.Write([]string{"shards", "offered_hs_s", "achieved_hs_s", "ratio",
			"p50_us", "p95_us", "completed", "failed", "digest"})
		for _, rg := range rungs {
			w.Write([]string{
				strconv.Itoa(rg.shards),
				fmt.Sprintf("%.2f", rg.offered),
				fmt.Sprintf("%.2f", rg.achieved),
				fmt.Sprintf("%.4f", rg.ratio),
				strconv.FormatInt(rg.p50.Microseconds(), 10),
				strconv.FormatInt(rg.p95.Microseconds(), 10),
				strconv.FormatUint(rg.completed, 10),
				strconv.FormatUint(rg.fails, 10),
				rg.digest,
			})
		}
		w.Flush()
		if err := w.Error(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d rungs to %s\n", len(rungs), *csvPath)
	}
	return nil
}

// validateSaturate rejects ladder parameters under which the sweep would
// never terminate, never climb, or never measure: non-positive starting
// rate, a growth factor at or below 1 (the ladder must climb to find the
// knee), a knee ratio outside (0, 1], a negative rate cap, fewer than one
// rung, or a non-positive rung duration.
func validateSaturate(rate, growth, knee, maxRate float64, rungs int, duration time.Duration) error {
	if rate <= 0 {
		return fmt.Errorf("pqbench: -rate %g must be positive", rate)
	}
	if growth <= 1 {
		return fmt.Errorf("pqbench: -growth %g must exceed 1 (the ladder has to climb)", growth)
	}
	if knee <= 0 || knee > 1 {
		return fmt.Errorf("pqbench: -knee %g must be in (0, 1]", knee)
	}
	if maxRate < 0 {
		return fmt.Errorf("pqbench: -rate-max %g must not be negative", maxRate)
	}
	if rungs < 1 {
		return fmt.Errorf("pqbench: -rungs %d must be at least 1", rungs)
	}
	if duration <= 0 {
		return fmt.Errorf("pqbench: -duration %v must be positive", duration)
	}
	return nil
}

// parseShardSweep turns "-shards 1,2,4" into the sweep list; empty means
// every count from 1 to maxShards (GOMAXPROCS). Zero and negative counts
// are errors; counts beyond maxShards are capped with a warning — accept
// shards beyond the core count only add contention, never throughput.
func parseShardSweep(s string, maxShards int) ([]int, []string, error) {
	if s == "" {
		out := make([]int, 0, maxShards)
		for i := 1; i <= maxShards; i++ {
			out = append(out, i)
		}
		return out, nil, nil
	}
	var out []int
	var warnings []string
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, nil, fmt.Errorf("pqbench: bad -shards entry %q (want a positive count)", part)
		}
		if v > maxShards {
			warnings = append(warnings,
				fmt.Sprintf("-shards %d exceeds GOMAXPROCS (%d); capping — extra shards only contend", v, maxShards))
			v = maxShards
		}
		out = append(out, v)
	}
	return out, warnings, nil
}
