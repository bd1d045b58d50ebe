// Command pqbench regenerates the paper's tables and figures. Subcommands
// follow the artifact's experiment naming (Appendix B):
//
//	pqbench all-kem                  Table 2a (KAs with rsa:2048)
//	pqbench all-sig                  Table 2b (SAs with X25519)
//	pqbench deviation -buffer=...    Figure 3a (default) / 3b (immediate)
//	pqbench improvement              Figure 3c (optimized vs default)
//	pqbench whitebox                 Table 3 (CPU profile)
//	pqbench all-kem-scenarios        Table 4a (KAs across emulations)
//	pqbench all-sig-scenarios        Table 4b (SAs across emulations)
//	pqbench rank                     Figure 4 (log-scaled ranking)
//	pqbench attack                   Section 5.5 (amplification/asymmetry)
//	pqbench list                     registered suites
//
// Every campaign subcommand accepts -workers N to fan samples across a
// worker pool (default: GOMAXPROCS; -workers 1 runs sequentially) and
// -timing model|real to pick between the deterministic virtual compute
// clock and measured wall time (real timing forces a single worker).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/kem"
	"pqtls/internal/netsim"
	"pqtls/internal/nettap"
	"pqtls/internal/perf"
	"pqtls/internal/sig"
	"pqtls/internal/tls13"
)

// subcommand is one row of the dispatch table. main looks commands up in
// it, usage() prints it, and docs_test.go checks the how-to docs against it.
type subcommand struct {
	name string
	// own runs a subcommand that parses its own flag set; help is its usage
	// line.
	own  func(args []string) error
	help string
	// run executes a subcommand under the shared campaign flags (-samples,
	// -buffer, -workers, -timing, -csv); args is what follows them.
	run func(cfg harness.SweepConfig, args []string) error
}

// sweep adapts a campaign that takes no positional arguments.
func sweep(f func(harness.SweepConfig) error) func(harness.SweepConfig, []string) error {
	return func(cfg harness.SweepConfig, _ []string) error { return f(cfg) }
}

var subcommands = []subcommand{
	{name: "all-kem", run: sweep(runTable2a)},
	{name: "all-sig", run: sweep(runTable2b)},
	{name: "deviation", run: sweep(runDeviation)},
	{name: "improvement", run: sweep(runImprovement)},
	{name: "whitebox", run: sweep(runWhitebox)},
	{name: "all-kem-scenarios", run: func(cfg harness.SweepConfig, _ []string) error { return runScenarios(cfg, true) }},
	{name: "all-sig-scenarios", run: func(cfg harness.SweepConfig, _ []string) error { return runScenarios(cfg, false) }},
	{name: "rank", run: sweep(runRank)},
	{name: "attack", run: sweep(runAttack)},
	{name: "cwnd", run: sweep(runCWND)},
	{name: "all-sphincs", run: sweep(runAllSphincs)},
	{name: "hrr", run: sweep(runHRR)},
	{name: "chains", run: sweep(runChains)},
	{name: "resumption", run: sweep(runResumption)},
	{name: "capture", run: func(_ harness.SweepConfig, args []string) error { return runCapture(args) }},
	{name: "list", run: func(harness.SweepConfig, []string) error { runList(); return nil }},

	{name: "live", own: runLive,
		help: "real-socket load test over loopback (own flags; pqbench live -h)"},
	{name: "dist-coordinator", own: runDistCoordinator,
		help: "split one load plan across dist-worker processes, merge bucket-exactly (own flags)"},
	{name: "dist-worker", own: runDistWorker,
		help: "load-generation worker driven by a dist-coordinator (own flags)"},
	{name: "phases", own: runPhases,
		help: "per-phase handshake breakdown with span traces (own flags; pqbench phases -h)"},
	{name: "timeline", own: runTimeline,
		help: "render a windowed-telemetry JSONL artifact as a table (pqbench timeline -h)"},
}

func lookup(name string) *subcommand {
	for i := range subcommands {
		if subcommands[i].name == name {
			return &subcommands[i]
		}
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	sc := lookup(cmd)
	if sc == nil {
		usage()
		os.Exit(2)
	}
	if sc.own != nil {
		if err := sc.own(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "pqbench:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	samples := fs.Int("samples", 9, "handshakes per suite")
	buffer := fs.String("buffer", "immediate", "server buffering: default|immediate")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = GOMAXPROCS, 1 = sequential)")
	timing := fs.String("timing", "model", "compute timing: model (deterministic) | real (measured, single worker)")
	csvPath := fs.String("csv", "", "also write results as CSV (latencies.csv layout) to this file")
	fs.Parse(os.Args[2:])
	csvFile = *csvPath

	policy := tls13.BufferImmediate
	if *buffer == "default" {
		policy = tls13.BufferDefault
	}
	cfg := harness.SweepConfig{Samples: *samples, Buffer: policy, Workers: *workers}
	switch *timing {
	case "model":
		cfg.Timing = harness.TimingModel
	case "real":
		cfg.Timing = harness.TimingReal
	default:
		fmt.Fprintf(os.Stderr, "pqbench: unknown -timing %q (want model or real)\n", *timing)
		os.Exit(2)
	}

	start := time.Now()
	err := sc.run(cfg, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqbench:", err)
		os.Exit(1)
	}
	if isCampaign(cmd) {
		// Wall clock goes to stderr so stdout stays byte-identical across
		// worker counts (compare runs to see the parallel speedup).
		fmt.Fprintf(os.Stderr, "pqbench: %s finished in %s (workers=%d, timing=%s)\n",
			cmd, time.Since(start).Round(time.Millisecond), effectiveWorkers(cfg), *timing)
	}
}

// isCampaign reports whether cmd runs handshake campaigns (and so should
// report wall clock); list and capture are excluded.
func isCampaign(cmd string) bool {
	switch cmd {
	case "list", "capture":
		return false
	}
	return true
}

// effectiveWorkers resolves the worker count the campaigns actually used.
func effectiveWorkers(cfg harness.SweepConfig) int {
	if cfg.Timing == harness.TimingReal {
		return 1
	}
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return harness.DefaultWorkers()
}

// csvFile, when non-empty, receives a CSV copy of table-shaped results.
var csvFile string

// writeCSV writes rows via emit to csvFile if requested.
func writeCSV(emit func(w io.Writer) error) error {
	if csvFile == "" {
		return nil
	}
	f, err := os.Create(csvFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := emit(f); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "pqbench: CSV written to", csvFile)
	return nil
}

func usage() {
	var campaigns []string
	var own strings.Builder
	for _, sc := range subcommands {
		if sc.own == nil {
			campaigns = append(campaigns, sc.name)
		} else {
			fmt.Fprintf(&own, "%-17s %s\n", sc.name+":", sc.help)
		}
	}
	fmt.Fprintf(os.Stderr, `usage: pqbench <command> [-samples N] [-buffer default|immediate] [-workers N] [-timing model|real]

commands: %s

%s`, strings.Join(campaigns, " "), own.String())
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func runTable2a(cfg harness.SweepConfig) error {
	results, err := harness.RunTable2a(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 2a: KAs combined with rsa:2048 as SA")
	if err := harness.RenderTable2(os.Stdout, results, true); err != nil {
		return err
	}
	return writeCSV(func(w io.Writer) error { return harness.WriteLatenciesCSV(w, results) })
}

func runTable2b(cfg harness.SweepConfig) error {
	results, err := harness.RunTable2b(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 2b: SAs combined with x25519 as KA")
	if err := harness.RenderTable2(os.Stdout, results, false); err != nil {
		return err
	}
	return writeCSV(func(w io.Writer) error { return harness.WriteLatenciesCSV(w, results) })
}

func runDeviation(cfg harness.SweepConfig) error {
	figure := "3b (optimized OpenSSL behavior)"
	if cfg.Buffer == tls13.BufferDefault {
		figure = "3a (default OpenSSL behavior)"
	}
	devs, err := harness.RunDeviation(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Figure %s: deviation E(k,s)-M(k,s); positive = faster than predicted\n", figure)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Level\tKA\tSA\tExpected(ms)\tMeasured(ms)\tDeviation(ms)")
	for _, d := range devs {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			d.Level, d.KEM, d.Sig, ms(d.Expected), ms(d.Measured), ms(d.Deviation))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeCSV(func(w io.Writer) error { return harness.WriteDeviationsCSV(w, devs) })
}

func runImprovement(cfg harness.SweepConfig) error {
	imps, err := harness.RunBufferImprovement(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 3c: latency improvement of the optimized buffering")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Level\tKA\tSA\tDefault(ms)\tOptimized(ms)\tGain(ms)")
	for _, im := range imps {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			im.Level, im.KEM, im.Sig, ms(im.Default), ms(im.Opt), ms(im.Gain))
	}
	return w.Flush()
}

func runWhitebox(cfg harness.SweepConfig) error {
	results, err := harness.RunTable3(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 3: white-box measurements")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KA\tSA\tHS(1/s)\tCPU srv(ms)\tCPU cli(ms)\tPkts srv\tPkts cli\tServer libs\tClient libs")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%s\t%s\t%d\t%d\t%s\t%s\n",
			r.KEM, r.Sig, r.HandshakeRate(), ms(r.ServerCPU), ms(r.ClientCPU),
			r.ServerPackets, r.ClientPackets,
			distString(r.ServerProfile), distString(r.ClientProfile))
	}
	return w.Flush()
}

func distString(s perf.Snapshot) string {
	var parts []string
	for _, bs := range s.Distribution() {
		if bs.Share < 0.01 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.0f%%", bs.Lib, bs.Share*100))
	}
	return strings.Join(parts, " ")
}

func runScenarios(cfg harness.SweepConfig, kems bool) error {
	var rows []harness.ScenarioRow
	var err error
	if kems {
		fmt.Println("Table 4a: KAs combined with rsa:2048, per network scenario (median ms)")
		rows, err = harness.RunScenarios(harness.Table2aKEMs, nil, cfg)
	} else {
		fmt.Println("Table 4b: SAs combined with x25519, per network scenario (median ms)")
		rows, err = harness.RunScenarios(nil, harness.Table4bSigs, cfg)
	}
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	names := []string{}
	for _, sc := range netsim.Scenarios() {
		names = append(names, sc.Name)
	}
	fmt.Fprintf(w, "Algorithm\t%s\n", strings.Join(names, "\t"))
	for _, row := range rows {
		name := row.KEM
		if !kems {
			name = row.Sig
		}
		cells := []string{name}
		for _, sc := range names {
			cells = append(cells, ms(row.Latency[sc]))
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := harness.CheckLossMonotone(rows); err != nil {
		return err
	}
	return writeCSV(func(w io.Writer) error { return harness.WriteScenariosCSV(w, rows) })
}

func runRank(cfg harness.SweepConfig) error {
	kemResults, err := harness.RunTable2a(cfg)
	if err != nil {
		return err
	}
	sigResults, err := harness.RunTable2b(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4: log-scaled latency ranking [0=fastest .. 10=slowest]")
	fmt.Println("Key agreements:")
	for _, r := range harness.RankFromResults(kemResults, func(r *harness.CampaignResult) string { return r.KEM }) {
		fmt.Printf("  %2d  %-16s %s ms\n", r.Score, r.Name, ms(r.Total))
	}
	fmt.Println("Signature algorithms:")
	for _, r := range harness.RankFromResults(sigResults, func(r *harness.CampaignResult) string { return r.Sig }) {
		fmt.Printf("  %2d  %-18s %s ms\n", r.Score, r.Name, ms(r.Total))
	}
	return nil
}

func runAttack(cfg harness.SweepConfig) error {
	cfg.Buffer = tls13.BufferImmediate
	results, err := harness.RunTable2b(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Section 5.5: attack surface (amplification = server/client bytes)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KA\tSA\tAmplification\tCPU asymmetry (srv/cli)")
	for _, a := range harness.AttackSurfaceFromResults(results) {
		fmt.Fprintf(w, "%s\t%s\t%.1fx\t%.1fx\n", a.KEM, a.Sig, a.Amplification, a.CPUAsymmetry)
	}
	return w.Flush()
}

func runCWND(cfg harness.SweepConfig) error {
	results, err := harness.RunCWNDSweep(nil, cfg)
	if err != nil {
		return err
	}
	fmt.Println("Initial-CWND tuning sweep at 1s RTT (the conclusion's knob):")
	fmt.Println("median full-handshake latency; RTTs column shows the CWND cliff")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KA\tSA\tCWND\tMedian(ms)\tRTTs")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t%.2f\n", r.KEM, r.Sig, r.CWND, ms(r.Total), r.RTTs)
	}
	return w.Flush()
}

func runAllSphincs(cfg harness.SweepConfig) error {
	results, err := harness.RunAllSphincs(cfg)
	if err != nil {
		return err
	}
	fmt.Println("all-sphincs: fast (f) vs small (s) variants with x25519")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Variant\tPartA(ms)\tPartB(ms)\tServer(B)\t#Total(60s)")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\n",
			r.Sig, ms(r.PartAMedian), ms(r.PartBMedian), r.ServerBytes, r.Handshakes60s)
	}
	return w.Flush()
}

func runHRR(cfg harness.SweepConfig) error {
	fmt.Println("HelloRetryRequest (2-RTT fallback) penalty — what the paper's")
	fmt.Println("'fallback never occurred' configuration avoided")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KA\t"+"Scenario\t"+"Direct(ms)\t"+"Fallback(ms)\t"+"Penalty(ms)")
	for _, link := range []netsim.LinkConfig{harness.ScenarioTestbed, netsim.Scenario5G} {
		results, err := harness.RunHRRComparison(nil, link, cfg)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n",
				r.KEM, r.Scenario, ms(r.Direct), ms(r.Fallback), ms(r.Penalty))
		}
	}
	return w.Flush()
}

func runChains(cfg harness.SweepConfig) error {
	results, err := harness.RunChainDepth(nil, cfg)
	if err != nil {
		return err
	}
	fmt.Println("Certificate-chain depth sweep (x25519 KA): every extra PQ")
	fmt.Println("certificate costs a full public key + signature on the wire")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SA\tDepth\tMedian(ms)\tServer(B)")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\n", r.Sig, r.Depth, ms(r.Total), r.ServerBytes)
	}
	return w.Flush()
}

// runCapture records one simulated handshake per suite to libpcap files
// (the artifact publishes PCAPs of its runs). Usage: capture [kem] [sig].
func runCapture(args []string) error {
	kemName, sigName := harness.BaselineKEM, harness.BaselineSig
	if len(args) > 0 {
		kemName = args[0]
	}
	if len(args) > 1 {
		sigName = args[1]
	}
	name := fmt.Sprintf("%s_%s.pcap", kemName, strings.ReplaceAll(sigName, ":", ""))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	pw, err := nettap.NewPcapWriter(f)
	if err != nil {
		return err
	}
	res, err := harness.RunHandshake(harness.RunOptions{
		KEM: kemName, Sig: sigName, Link: harness.ScenarioTestbed,
		Buffer: tls13.BufferImmediate, Seed: 1, Pcap: pw,
	})
	if err != nil {
		return err
	}
	if pw.Err() != nil {
		return pw.Err()
	}
	fmt.Printf("wrote %s: %d packets, handshake %s ms (evaluate with pqtls-eval)\n",
		name, res.ClientPackets+res.ServerPackets, ms(res.Phases.Total()))
	return nil
}

func runResumption(cfg harness.SweepConfig) error {
	results, err := harness.RunResumptionComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Println("PSK resumption: a resumed handshake skips Certificate +")
	fmt.Println("CertificateVerify, amortizing the PQ authentication cost")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KA\t"+"SA\t"+"Full(ms)\t"+"Resumed(ms)\t"+"Full srv(B)\t"+"Resumed srv(B)")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%d\n",
			r.KEM, r.Sig, ms(r.Full), ms(r.Resumed), r.FullBytes, r.ResumeBytes)
	}
	return w.Flush()
}

func runList() {
	fmt.Println("Key agreements (Table 2a):")
	names := kem.Names()
	sort.Strings(names)
	for _, n := range names {
		k, _ := kem.ByName(n)
		fmt.Printf("  %-16s level %d  pk %5dB  ct %5dB\n", n, k.Level(), k.PublicKeySize(), k.CiphertextSize())
	}
	fmt.Println("Signature algorithms (Tables 2b/4b):")
	for _, n := range sig.Names() {
		s, _ := sig.ByName(n)
		fmt.Printf("  %-20s level %d  pk %5dB  sig %5dB\n", n, s.Level(), s.PublicKeySize(), s.SignatureSize())
	}
}
