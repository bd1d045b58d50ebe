package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pqtls/internal/harness"
	"pqtls/internal/live"
	"pqtls/internal/loadgen"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// runPhases is the `pqbench phases` subcommand: it runs one (KA, SA) grid
// cell with span tracing enabled and renders the stacked phase breakdown —
// where each millisecond of the handshake goes, on both endpoints. With
// -buffer both (the default) it runs the cell under both server buffering
// policies, making the flight-wait interaction from Section 5.3 directly
// visible. Traces are written as JSONL plus an aggregated CSV under -out.
func runPhases(args []string) error {
	fs := flag.NewFlagSet("phases", flag.ExitOnError)
	kemName := fs.String("ka", "kyber768", "key agreement (see pqbench list)")
	sigName := fs.String("sa", "dilithium3", "certificate signature algorithm")
	buffer := fs.String("buffer", "both", "server flight buffering: both|default|immediate")
	samples := fs.Int("samples", 9, "traced handshakes per cell (live mode: measured handshakes)")
	seed := fs.Int64("seed", 1, "campaign seed")
	resume := fs.Bool("resume", false, "trace PSK-resumed handshakes")
	liveMode := fs.Bool("live", false, "trace real loopback handshakes instead of the modeled testbed (client side only)")
	outDir := fs.String("out", "results", "directory for JSONL traces and CSV aggregates")
	fs.Parse(args)

	var policies []tls13.BufferPolicy
	switch *buffer {
	case "both":
		policies = []tls13.BufferPolicy{tls13.BufferDefault, tls13.BufferImmediate}
	case "default":
		policies = []tls13.BufferPolicy{tls13.BufferDefault}
	case "immediate":
		policies = []tls13.BufferPolicy{tls13.BufferImmediate}
	default:
		return fmt.Errorf("unknown -buffer %q (want both, default, or immediate)", *buffer)
	}
	if *liveMode {
		return runPhasesLive(*kemName, *sigName, policies, *samples, *resume, *outDir)
	}

	waits := map[tls13.BufferPolicy]time.Duration{}
	for _, policy := range policies {
		r, err := harness.RunPhases(harness.PhasesOptions{
			KEM: *kemName, Sig: *sigName, Link: harness.ScenarioTestbed,
			Buffer: policy, Samples: *samples, Seed: *seed, Resume: *resume,
		})
		if err != nil {
			return err
		}
		if err := harness.RenderPhases(os.Stdout, r); err != nil {
			return err
		}
		// The report is only honest if the client's phases reconstruct the
		// tap's Total; a disagreement beyond 1% means the instrumentation
		// dropped or double-counted a phase.
		if e := r.SumError(); e > 0.01 {
			return fmt.Errorf("phase sum %v disagrees with tap total %v by %.2f%% (>1%%)",
				r.ClientSumP50, r.TotalP50, e*100)
		}
		waits[policy] = r.FlightWaitP50()
		if err := writePhaseArtifacts(*outDir, *kemName, *sigName, harness.BufferName(policy), r.Collector, func(w *os.File) error {
			return harness.WritePhasesCSV(w, r)
		}); err != nil {
			return err
		}
		fmt.Println()
	}
	if len(policies) == 2 {
		fmt.Printf("flight-wait p50: default %s ms vs immediate %s ms — early ServerHello push lets the client overlap decapsulation with the server still signing\n",
			ms(waits[tls13.BufferDefault]), ms(waits[tls13.BufferImmediate]))
	}
	return nil
}

// writePhaseArtifacts emits the raw JSONL trace (self-validated against the
// span schema) and the aggregated CSV for one cell.
func writePhaseArtifacts(dir, kemName, sigName, bufName string, col *obs.Collector, writeCSV func(*os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("phases_%s_%s_%s", sanitize(kemName), sanitize(sigName), bufName)

	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		return err
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("emitted trace failed schema self-check: %w", err)
	}
	jsonlPath := filepath.Join(dir, stem+".jsonl")
	if err := os.WriteFile(jsonlPath, buf.Bytes(), 0o644); err != nil {
		return err
	}

	csvPath := filepath.Join(dir, stem+".csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := writeCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace schema ok: %d spans -> %s (aggregate %s)\n", n, jsonlPath, csvPath)
	return nil
}

// sanitize makes an algorithm name filesystem-friendly (rsa:2048 -> rsa2048).
func sanitize(name string) string {
	return strings.ReplaceAll(name, ":", "")
}

// runPhasesLive traces real loopback handshakes: the loadgen client records
// wall-clock spans (tls13 phases plus socket flight-waits). Only the client
// side is traced; the server's phase times go to its /metrics histogram
// instead of per-handshake traces. The sum check does not apply: wall-clock
// phases overlap scheduler noise, so the breakdown is informational, not an
// identity.
func runPhasesLive(kemName, sigName string, policies []tls13.BufferPolicy, samples int, resume bool, outDir string) error {
	for _, policy := range policies {
		creds, err := harness.CredentialsFor(sigName, 1)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv, err := live.Serve(ln, live.Options{
			Config: &tls13.Config{
				KEMName: kemName, SigName: sigName, ServerName: "server.example",
				Chain: creds.Chain, PrivateKey: creds.Priv, Buffer: policy,
			},
			IssueTickets: resume,
		})
		if err != nil {
			return err
		}
		col := &obs.Collector{}
		res, err := loadgen.Run(loadgen.Options{
			Addr:       srv.Addr().String(),
			Config:     &tls13.Config{KEMName: kemName, SigName: sigName, ServerName: "server.example", Roots: creds.Roots},
			Handshakes: samples,
			Resume:     resume,
			Trace:      col,
		})
		if shutErr := srv.Shutdown(5 * time.Second); shutErr != nil && err == nil {
			err = shutErr
		}
		if err != nil {
			return err
		}
		bufName := harness.BufferName(policy)
		fmt.Printf("# phases %s/%s live loopback buffer=%s traces=%d (client side, wall clock)\n",
			kemName, sigName, bufName, col.Len())
		sts := obs.AggregatePhases(col.Traces())
		if err := obs.WritePhaseTable(os.Stdout, sts); err != nil {
			return err
		}
		fmt.Printf("total p50 %s ms over %d measured handshakes (CH written -> Finished sent)\n",
			ms(res.Hist.Quantile(0.50)), res.Hist.Count())
		if err := writePhaseArtifacts(outDir, kemName, sigName, "live-"+bufName, col, func(w *os.File) error {
			return writeLivePhasesCSV(w, kemName, sigName, bufName, sts)
		}); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// writeLivePhasesCSV mirrors harness.WritePhasesCSV's layout for live
// traces (no share column values: there is no modeled Total to divide by).
func writeLivePhasesCSV(w *os.File, kemName, sigName, bufName string, sts []obs.PhaseStat) error {
	if _, err := fmt.Fprintln(w, "ka,sa,buffer,endpoint,phase,samples,p50_us,p95_us,mean_us,share"); err != nil {
		return err
	}
	for _, st := range sts {
		if _, err := fmt.Fprintf(w, "%s,%s,live-%s,%s,%s,%d,%d,%d,%d,\n",
			kemName, sigName, bufName, st.Endpoint, st.Phase, st.Samples,
			st.P50.Microseconds(), st.P95.Microseconds(), st.Mean.Microseconds()); err != nil {
			return err
		}
	}
	return nil
}
