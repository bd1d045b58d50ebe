//go:build linux

package main

import (
	"context"
	"fmt"
	"io"
	"math"
)

// aaRow is the A/A verdict for one end-to-end metric on one workload.
type aaRow struct {
	q1, med, q3 float64
	// spread is (Q3 − Q1) ÷ median, the quantity the bound limits.
	spread float64
	// maxPair is the largest relative difference between any two sets.
	maxPair float64
}

func aaStats(values []float64) aaRow {
	q1, med, q3 := quartiles(values)
	r := aaRow{q1: q1, med: med, q3: q3}
	if med != 0 {
		r.spread = (q3 - q1) / math.Abs(med)
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo != 0 {
		r.maxPair = (hi - lo) / math.Abs(lo)
	}
	return r
}

// runAA runs the same code `sets` times and reports, per workload and
// end-to-end metric, how far the sets disagree. Set k uses seed+k, as two
// runs of the driver would, and the workload order alternates so that no
// workload always runs on a warm or a cold machine. It fails when a spread
// exceeds the metric's bound: such a metric cannot tell a regression of that
// size from noise.
func runAA(ctx context.Context, e *env, selected []workload, seed int64, seconds float64, sets int, stdout, stderr io.Writer) int {
	if sets < 2 {
		fmt.Fprintln(stderr, "pqperf: -repeat needs at least 2 sets")
		return 2
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for k := 0; k < sets; k++ {
		order := append([]workload(nil), selected...)
		if k%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := runEndToEnd(ctx, e, w, seed+int64(k), seconds)
			if err != nil {
				fmt.Fprintf(stderr, "pqperf: set %d %s: %v\n", k, w.name, err)
				return 1
			}
			res.finish()
			if !res.Correct {
				printResult(stdout, w.name, seed+int64(k), res)
				fmt.Fprintln(stderr, "pqperf: a correctness check failed")
				return 1
			}
			fmt.Fprintf(stdout, "set %d/%d %s done\n", k+1, sets, w.name)
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}

	over := 0
	fmt.Fprintf(stdout, "\nA/A over %d sets, seeds %d..%d (spread = IQR/median; * = above the bound)\n", sets, seed, seed+int64(sets)-1)
	fmt.Fprintf(stdout, "| workload | metric | Q1 | median | Q3 | spread | max pair | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range selected {
		for _, d := range e.decl.EndToEnd {
			vs := values[w.name][d.Name]
			if len(vs) == 0 {
				continue
			}
			r := aaStats(vs)
			flag := ""
			// setup_s is gated on its median only, as the driver does.
			if r.spread > d.Bound && d.Name != "setup_s" {
				flag = " *"
				over++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %.4g | %.3f%s | %.3f | %.2f |\n",
				w.name, d.Name, r.q1, r.med, r.q3, r.spread, flag, r.maxPair, d.Bound)
		}
	}
	fmt.Fprintf(stdout, "\nevery run made, in set order:\n")
	for _, w := range selected {
		for _, d := range e.decl.EndToEnd {
			fmt.Fprintf(stdout, "%s %s:", w.name, d.Name)
			for _, v := range values[w.name][d.Name] {
				fmt.Fprintf(stdout, " %.4g", v)
			}
			fmt.Fprintln(stdout)
		}
	}
	if over > 0 {
		fmt.Fprintf(stderr, "pqperf: %d end-to-end metrics spread wider than their bound\n", over)
		return 1
	}
	return 0
}
