package obs

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"pqtls/internal/stats"
)

// PhaseStat summarizes one handshake phase on one endpoint across samples.
// Per-sample values are the *sum* of that phase's top-level (depth-0) spans
// within the sample — a phase that occurs per-record (record-write) or
// per-wait (flight-wait) contributes its total, so the per-endpoint phase
// sums add up to the endpoint's total busy+wait time.
type PhaseStat struct {
	Endpoint string
	Phase    string
	Samples  int
	P50      time.Duration
	P95      time.Duration
	Mean     time.Duration
}

// PhaseSums returns the per-phase summed durations of one trace's depth-0
// phase spans, plus first-seen phase order. Nested phases are excluded —
// they overlap the top-level phases and would double count.
func PhaseSums(t *Tracer) (map[string]time.Duration, []string) {
	sums := map[string]time.Duration{}
	var order []string
	for _, s := range t.Spans() {
		if s.Depth != 0 {
			continue
		}
		if _, ok := sums[s.Name]; !ok {
			order = append(order, s.Name)
		}
		sums[s.Name] += s.Dur()
	}
	return sums, order
}

// AggregatePhases reduces collected traces to per-(endpoint, phase)
// nearest-rank quantiles. A sample contributes to a phase only when the
// phase occurred in it (Samples records how many did). Rows are ordered
// client before server, then by first appearance within the endpoint.
func AggregatePhases(traces []*Tracer) []PhaseStat {
	type key struct{ endpoint, phase string }
	byKey := map[key][]time.Duration{}
	var order []key
	for _, endpoint := range []string{"client", "server"} {
		for _, t := range traces {
			if t.Meta().Endpoint != endpoint {
				continue
			}
			sums, phaseOrder := PhaseSums(t)
			for _, name := range phaseOrder {
				k := key{endpoint, name}
				if _, ok := byKey[k]; !ok {
					order = append(order, k)
				}
				byKey[k] = append(byKey[k], sums[name])
			}
		}
	}
	out := make([]PhaseStat, 0, len(order))
	for _, k := range order {
		xs := byKey[k]
		qs := stats.Quantiles(xs, 0.50, 0.95)
		out = append(out, PhaseStat{
			Endpoint: k.endpoint,
			Phase:    k.phase,
			Samples:  len(xs),
			P50:      qs[0],
			P95:      qs[1],
			Mean:     stats.Mean(xs),
		})
	}
	return out
}

// usCell renders a duration as fractional milliseconds with microsecond
// resolution, matching the harness tables.
func usCell(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1e3)
}

// WritePhaseTable renders aggregated phase stats as an aligned table with
// millisecond columns.
func WritePhaseTable(w io.Writer, sts []PhaseStat) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tPHASE\tN\tP50(ms)\tP95(ms)\tMEAN(ms)")
	for _, st := range sts {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\n",
			st.Endpoint, st.Phase, st.Samples, usCell(st.P50), usCell(st.P95), usCell(st.Mean))
	}
	return tw.Flush()
}
