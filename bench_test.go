// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded runs).
// Each Benchmark function corresponds to one table or figure; sub-benchmarks
// are the table rows. Custom metrics report the paper's columns:
// partA/partB medians (ms), wire bytes, handshakes per 60 s.
package pqtls_test

import (
	"fmt"
	"testing"
	"time"

	"pqtls"
	"pqtls/internal/harness"
	"pqtls/internal/netsim"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

func reportCampaign(b *testing.B, r *harness.CampaignResult) {
	b.ReportMetric(float64(r.PartAMedian)/1e6, "partA-ms")
	b.ReportMetric(float64(r.PartBMedian)/1e6, "partB-ms")
	b.ReportMetric(float64(r.Handshakes60s), "hs/60s")
	b.ReportMetric(float64(r.ClientBytes), "client-B")
	b.ReportMetric(float64(r.ServerBytes), "server-B")
}

// BenchmarkTable2a regenerates Table 2a: one row per key agreement,
// combined with rsa:2048. Each iteration is one full simulated handshake.
func BenchmarkTable2a(b *testing.B) {
	for _, kemName := range harness.Table2aKEMs {
		b.Run(kemName, func(b *testing.B) {
			r, err := harness.RunCampaign(harness.CampaignOptions{
				KEM: kemName, Sig: harness.BaselineSig, Link: harness.ScenarioTestbed,
				Buffer: tls13.BufferImmediate, Samples: max(b.N, 3), Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			reportCampaign(b, r)
		})
	}
}

// BenchmarkTable2b regenerates Table 2b: one row per signature algorithm,
// combined with X25519.
func BenchmarkTable2b(b *testing.B) {
	for _, sigName := range harness.Table2bSigs {
		b.Run(sigName, func(b *testing.B) {
			r, err := harness.RunCampaign(harness.CampaignOptions{
				KEM: harness.BaselineKEM, Sig: sigName, Link: harness.ScenarioTestbed,
				Buffer: tls13.BufferImmediate, Samples: max(b.N, 3), Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			reportCampaign(b, r)
		})
	}
}

// BenchmarkFigure3a regenerates the deviation analysis under the default
// (stock OpenSSL) buffering; the reported metric is the largest absolute
// deviation from the KA/SA-independence prediction.
func BenchmarkFigure3a(b *testing.B) {
	benchDeviation(b, tls13.BufferDefault)
}

// BenchmarkFigure3b is the same analysis under the optimized buffering.
func BenchmarkFigure3b(b *testing.B) {
	benchDeviation(b, tls13.BufferImmediate)
}

func benchDeviation(b *testing.B, policy tls13.BufferPolicy) {
	for i := 0; i < b.N; i++ {
		devs, err := harness.RunDeviation(harness.SweepConfig{Samples: 3, Buffer: policy})
		if err != nil {
			b.Fatal(err)
		}
		var maxAbs time.Duration
		for _, d := range devs {
			abs := d.Deviation
			if abs < 0 {
				abs = -abs
			}
			if abs > maxAbs {
				maxAbs = abs
			}
		}
		b.ReportMetric(float64(maxAbs)/1e6, "max-dev-ms")
		b.ReportMetric(float64(len(devs)), "combinations")
	}
}

// BenchmarkFigure3c regenerates the buffering-improvement figure; the
// metric is the largest latency gain from pushing the ServerHello early.
func BenchmarkFigure3c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		imps, err := harness.RunBufferImprovement(harness.SweepConfig{Samples: 3})
		if err != nil {
			b.Fatal(err)
		}
		var maxGain time.Duration
		for _, im := range imps {
			if im.Gain > maxGain {
				maxGain = im.Gain
			}
		}
		b.ReportMetric(float64(maxGain)/1e6, "max-gain-ms")
	}
}

// BenchmarkTable3 regenerates the white-box table; metrics report the
// extremes of server CPU cost and handshake rate across the selection.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunTable3(harness.SweepConfig{Samples: 3})
		if err != nil {
			b.Fatal(err)
		}
		var maxSrvCPU time.Duration
		var maxRate float64
		for _, r := range rows {
			if r.ServerCPU > maxSrvCPU {
				maxSrvCPU = r.ServerCPU
			}
			if rate := r.HandshakeRate(); rate > maxRate {
				maxRate = rate
			}
		}
		b.ReportMetric(float64(maxSrvCPU)/1e6, "max-srv-cpu-ms")
		b.ReportMetric(maxRate, "max-hs/s")
	}
}

// BenchmarkTable4a regenerates the constrained-environment table for the
// key agreements (one sub-benchmark per scenario, on a representative
// subset per level to keep a single iteration tractable; the full table is
// `pqbench all-kem-scenarios`).
func BenchmarkTable4a(b *testing.B) {
	kems := []string{"x25519", "kyber512", "hqc128", "p256_kyber512", "kyber768", "hqc256"}
	benchScenarios(b, kems, nil)
}

// BenchmarkTable4b is the signature-algorithm half of Table 4.
func BenchmarkTable4b(b *testing.B) {
	sigs := []string{"rsa:2048", "falcon512", "dilithium2", "rsa3072_dilithium2", "dilithium5", "sphincs128"}
	benchScenarios(b, nil, sigs)
}

func benchScenarios(b *testing.B, kems, sigs []string) {
	suites := kems
	fixedSig := true
	if suites == nil {
		suites = sigs
		fixedSig = false
	}
	for _, sc := range netsim.Scenarios() {
		for _, name := range suites {
			kemName, sigName := name, harness.BaselineSig
			if !fixedSig {
				kemName, sigName = harness.BaselineKEM, name
			}
			b.Run(fmt.Sprintf("%s/%s", sc.Name, name), func(b *testing.B) {
				r, err := harness.RunCampaign(harness.CampaignOptions{
					KEM: kemName, Sig: sigName, Link: sc,
					Buffer: tls13.BufferImmediate, Samples: max(b.N, 3), Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.TotalMedian)/1e6, "median-ms")
			})
		}
	}
}

// BenchmarkFigure4 regenerates the log-scaled ranking; the metric is the
// spread between the fastest and slowest algorithm.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kemResults, err := harness.RunTable2a(harness.SweepConfig{Samples: 3, Buffer: tls13.BufferImmediate})
		if err != nil {
			b.Fatal(err)
		}
		ranks := harness.RankFromResults(kemResults, func(r *harness.CampaignResult) string { return r.KEM })
		b.ReportMetric(float64(ranks[len(ranks)-1].Total)/float64(ranks[0].Total), "spread-x")
	}
}

// BenchmarkSection55Attack quantifies the attack-surface analysis; metrics
// are the worst amplification factor and CPU asymmetry observed.
func BenchmarkSection55Attack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := harness.RunTable2b(harness.SweepConfig{Samples: 3, Buffer: tls13.BufferImmediate})
		if err != nil {
			b.Fatal(err)
		}
		surfaces := harness.AttackSurfaceFromResults(results)
		var maxAmp, maxAsym float64
		for _, s := range surfaces {
			if s.Amplification > maxAmp {
				maxAmp = s.Amplification
			}
			if s.CPUAsymmetry > maxAsym {
				maxAsym = s.CPUAsymmetry
			}
		}
		b.ReportMetric(maxAmp, "max-amplification-x")
		b.ReportMetric(maxAsym, "max-cpu-asymmetry-x")
	}
}

// hookedHandshake runs one full sans-IO handshake (no simulated network —
// pure compute, the worst case for observability overhead) for the suite
// creds were issued under, with the given hooks installed on both endpoints.
func hookedHandshake(creds *harness.Credentials, kemName, sigName string, cliHooks, srvHooks tls13.Hooks) error {
	srvCfg := &pqtls.Config{
		KEMName: kemName, SigName: sigName, ServerName: "server.example",
		Chain: creds.Chain, PrivateKey: creds.Priv,
		Hooks: srvHooks,
	}
	cliCfg := &pqtls.Config{
		KEMName: kemName, SigName: sigName, ServerName: "server.example",
		Roots: creds.Roots,
		Hooks: cliHooks,
	}
	cli, err := pqtls.NewClient(cliCfg)
	if err != nil {
		return err
	}
	srv, err := pqtls.NewServer(srvCfg)
	if err != nil {
		return err
	}
	ch, err := cli.Start()
	if err != nil {
		return err
	}
	flushes, err := srv.Respond(ch)
	if err != nil {
		return err
	}
	var final []pqtls.Record
	for _, f := range flushes {
		out, done, err := cli.Consume(f.Records)
		if err != nil {
			return err
		}
		if done {
			final = out
		}
	}
	return srv.Finish(final)
}

func tracedPair() (tls13.Hooks, tls13.Hooks) {
	cli := obs.NewTracer(obs.Meta{Endpoint: "client", KEM: "x25519", Sig: "ed25519"}, nil)
	srv := obs.NewTracer(obs.Meta{Endpoint: "server", KEM: "x25519", Sig: "ed25519"}, nil)
	return cli, srv
}

// BenchmarkHandshakeHooks compares the full-handshake cost with hooks nil
// vs. a fresh tracer pair per handshake (the phases pipeline's usage).
func BenchmarkHandshakeHooks(b *testing.B) {
	creds, err := harness.CredentialsFor("ed25519", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := hookedHandshake(creds, "x25519", "ed25519", nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cli, srv := tracedPair()
			if err := hookedHandshake(creds, "x25519", "ed25519", cli, srv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTracerOverhead gates the observability cost as a pure function of the
// code: installing a fresh tracer pair (the phases pipeline's usage) on a
// full x25519/ed25519 handshake may add at most 125 allocations (measured
// 118). Wall time on a shared host cannot hold a 5% bound, so the
// interleaved min-of-blocks timing is logged, not asserted;
// bench.trace_overhead_ratio in bench/pqperf is the measured counterpart.
func TestTracerOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis")
	}
	creds, err := harness.CredentialsFor("ed25519", 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(traced bool) {
		var cli, srv tls13.Hooks
		if traced {
			cli, srv = tracedPair()
		}
		if err := hookedHandshake(creds, "x25519", "ed25519", cli, srv); err != nil {
			t.Fatal(err)
		}
	}
	const maxExtra = 125
	allocsNone := testing.AllocsPerRun(20, func() { run(false) })
	allocsTraced := testing.AllocsPerRun(20, func() { run(true) })
	t.Logf("allocs per handshake: none %.0f, traced %.0f (limit +%d)", allocsNone, allocsTraced, maxExtra)
	if extra := allocsTraced - allocsNone; extra > maxExtra {
		t.Errorf("tracer pair adds %.0f allocations per handshake, want <= %d", extra, maxExtra)
	}

	if testing.Short() {
		return
	}
	// Interleaved fixed-size blocks compared by min-of-blocks, which cancels
	// most scheduler and frequency-scaling noise. Informational only.
	const blocks, iters = 8, 12
	minNone, minTraced := time.Duration(1<<62), time.Duration(1<<62)
	for b := 0; b < blocks; b++ {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			for i := 0; i < iters; i++ {
				run(traced)
			}
			d := time.Since(start) / iters
			if traced && d < minTraced {
				minTraced = d
			}
			if !traced && d < minNone {
				minNone = d
			}
		}
	}
	t.Logf("handshake min-of-blocks: none %v, traced %v", minNone, minTraced)
}

// TestSansIOHandshakeAllocs gates the allocation count of one full sans-IO
// handshake (both endpoints, no hooks) for the two suites bench/pqperf
// drives live; its tls13.sansio_allocs_per_hs reads 125 for the PQ suite.
// Each cap is the measured count plus the headroom it has always had.
func TestSansIOHandshakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis")
	}
	for _, suite := range []struct {
		kem, sig string
		max      float64
	}{
		{"kyber768", "dilithium3", 132},
		{"x25519", "ed25519", 127},
	} {
		creds, err := harness.CredentialsFor(suite.sig, 1)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := hookedHandshake(creds, suite.kem, suite.sig, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s+%s: %.0f allocs per handshake (limit %.0f)", suite.kem, suite.sig, allocs, suite.max)
		if allocs > suite.max {
			t.Errorf("%s+%s handshake allocates %.0f times, want <= %.0f", suite.kem, suite.sig, allocs, suite.max)
		}
	}
}
