package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"pqtls/internal/netsim"
	"pqtls/internal/obs"
	"pqtls/internal/stats"
	"pqtls/internal/tls13"
)

// PhasesOptions configure one phase-breakdown run: a small campaign of
// traced handshakes for a single (KEM, Sig, buffer policy) grid cell.
type PhasesOptions struct {
	KEM    string
	Sig    string
	Link   netsim.LinkConfig
	Buffer tls13.BufferPolicy
	// Samples is the number of traced handshakes (default 9).
	Samples int
	Seed    int64
	Resume  bool
}

// PhasesReport is the aggregated phase breakdown of one cell.
type PhasesReport struct {
	Opts PhasesOptions
	// Stats are the per-(endpoint, phase) aggregates, client first.
	Stats []obs.PhaseStat
	// TotalP50 is the median tap Total (CH on the wire → client Finished on
	// the wire) — the quantity every campaign table reports, which the
	// client's in-Total phases must sum to.
	TotalP50 time.Duration
	// ClientSumP50 is the median over samples of the client's summed
	// in-Total phase durations (busy phases + flight-waits).
	ClientSumP50 time.Duration
	// Collector holds the raw traces for JSONL export.
	Collector *obs.Collector
}

// preCHPhases are client phases that run before the ClientHello reaches the
// wire (or after the Finished leaves it) and are therefore outside the
// tap's Total; they are reported separately rather than summed against it.
var preCHPhases = map[string]bool{
	tls13.PhaseClientHello:   true,
	tls13.PhaseTicketProcess: true,
}

// RunPhases runs Samples traced handshakes of one cell and aggregates the
// span trees. Samples run sequentially: phase tracing is about where time
// goes within a handshake, not throughput, and the per-sample DRBG makes
// the result independent of scheduling anyway.
func RunPhases(opts PhasesOptions) (*PhasesReport, error) {
	if opts.Samples <= 0 {
		opts.Samples = 9
	}
	col := &obs.Collector{}
	var totals, cliSums []time.Duration
	for i := 0; i < opts.Samples; i++ {
		res, err := RunHandshake(RunOptions{
			KEM: opts.KEM, Sig: opts.Sig, Link: opts.Link, Buffer: opts.Buffer,
			Seed:        opts.Seed + int64(i)*7919,
			Resume:      opts.Resume,
			Trace:       col,
			TraceSample: i,
		})
		if err != nil {
			return nil, err
		}
		totals = append(totals, res.Phases.Total())
	}
	for _, t := range col.Traces() {
		if t.Meta().Endpoint != "client" {
			continue
		}
		sums, _ := PhaseSumsInTotal(t)
		var s time.Duration
		for _, d := range sums {
			s += d
		}
		cliSums = append(cliSums, s)
	}
	return &PhasesReport{
		Opts:         opts,
		Stats:        obs.AggregatePhases(col.Traces()),
		TotalP50:     stats.Median(totals),
		ClientSumP50: stats.Median(cliSums),
		Collector:    col,
	}, nil
}

// PhaseSumsInTotal returns one trace's depth-0 phase sums restricted to the
// phases inside the tap's Total window, plus first-seen order.
func PhaseSumsInTotal(t *obs.Tracer) (map[string]time.Duration, []string) {
	sums, order := obs.PhaseSums(t)
	kept := order[:0]
	for _, name := range order {
		if preCHPhases[name] {
			delete(sums, name)
			continue
		}
		kept = append(kept, name)
	}
	return sums, kept
}

// SumError returns the relative disagreement between the client's summed
// in-Total phases and the tap Total — the consistency check `pqbench
// phases` enforces (the modeled pipeline should agree to well under 1%).
func (r *PhasesReport) SumError() float64 {
	if r.TotalP50 == 0 {
		return 0
	}
	d := r.ClientSumP50 - r.TotalP50
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(r.TotalP50)
}

// FlightWaitP50 returns the client's median summed flight-wait, or 0 when
// the phase never occurred.
func (r *PhasesReport) FlightWaitP50() time.Duration {
	for _, st := range r.Stats {
		if st.Endpoint == "client" && st.Phase == tls13.PhaseFlightWait {
			return st.P50
		}
	}
	return 0
}

// RenderPhases writes the stacked phase-breakdown table: the client section
// first (each in-Total phase with its share of the tap Total, then the sum
// and the Total itself), the server section, and finally the client phases
// outside the Total window.
func RenderPhases(w io.Writer, r *PhasesReport) error {
	fmt.Fprintf(w, "# phases %s/%s link=%s buffer=%s samples=%d resume=%v\n",
		r.Opts.KEM, r.Opts.Sig, r.Opts.Link.Name, BufferName(r.Opts.Buffer),
		r.Opts.Samples, r.Opts.Resume)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tPHASE\tN\tP50(ms)\tP95(ms)\tMEAN(ms)\tSHARE")
	var clientSum time.Duration
	for _, st := range r.Stats {
		if st.Endpoint != "client" || preCHPhases[st.Phase] {
			continue
		}
		clientSum += st.P50
		fmt.Fprintf(tw, "client\t%s\t%d\t%s\t%s\t%s\t%s\n",
			st.Phase, st.Samples, ms(st.P50), ms(st.P95), ms(st.Mean), share(st.P50, r.TotalP50))
	}
	// The sum row uses the per-sample sums' median (phase medians are not
	// additive across samples); Δ is its disagreement with the tap.
	fmt.Fprintf(tw, "client\tsum(in-total)\t\t%s\t\t\t%s\n", ms(r.ClientSumP50), share(r.ClientSumP50, r.TotalP50))
	fmt.Fprintf(tw, "client\ttotal(tap)\t\t%s\t\t\tΔ %.2f%%\n", ms(r.TotalP50), r.SumError()*100)
	for _, st := range r.Stats {
		if st.Endpoint != "server" {
			continue
		}
		fmt.Fprintf(tw, "server\t%s\t%d\t%s\t%s\t%s\t\n",
			st.Phase, st.Samples, ms(st.P50), ms(st.P95), ms(st.Mean))
	}
	for _, st := range r.Stats {
		if st.Endpoint != "client" || !preCHPhases[st.Phase] {
			continue
		}
		fmt.Fprintf(tw, "client\t%s*\t%d\t%s\t%s\t%s\t\n",
			st.Phase, st.Samples, ms(st.P50), ms(st.P95), ms(st.Mean))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "# * outside the tap Total window (before the ClientHello hits the wire / after Finished)")
	return err
}

// WritePhasesCSV emits the machine-readable form of the breakdown.
func WritePhasesCSV(w io.Writer, r *PhasesReport) error {
	if _, err := fmt.Fprintln(w, "ka,sa,buffer,endpoint,phase,samples,p50_us,p95_us,mean_us,share"); err != nil {
		return err
	}
	for _, st := range r.Stats {
		sh := ""
		if st.Endpoint == "client" && !preCHPhases[st.Phase] && r.TotalP50 > 0 {
			sh = fmt.Sprintf("%.4f", float64(st.P50)/float64(r.TotalP50))
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%d,%d,%d,%d,%s\n",
			r.Opts.KEM, r.Opts.Sig, BufferName(r.Opts.Buffer),
			st.Endpoint, st.Phase, st.Samples,
			st.P50.Microseconds(), st.P95.Microseconds(), st.Mean.Microseconds(), sh); err != nil {
			return err
		}
	}
	return nil
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1e3)
}

// share renders d as a percentage of total ("" when total is zero).
func share(d, total time.Duration) string {
	if total == 0 {
		return ""
	}
	return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(total))
}
