package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"pqtls/internal/obs"
)

// Windowed-telemetry plumbing shared by the load-driving subcommands: live
// and dist-coordinator both accept -window (enable per-window
// telemetry and a live progress line at that cadence) and -timeline (write
// the run's timeline as digest-checkable results/ artifacts), and the
// `pqbench timeline` subcommand renders those artifacts back into a table.

// resolveWindow applies the flag coupling: -timeline implies windowed
// telemetry, defaulting the interval to one second when -window was not
// given explicitly.
func resolveWindow(window time.Duration, timelinePath string) time.Duration {
	if window <= 0 && timelinePath != "" {
		return time.Second
	}
	return window
}

// startTimelineProgress prints one fleet-rollup line per window interval to
// stderr while a run is in flight: cumulative counters, derived inflight,
// and the completion rate over the last window. src is polled each tick and
// may return nil (no telemetry yet — e.g. no dist progress frame has
// arrived). The returned stop function halts the ticker and waits for the
// printer goroutine to exit.
func startTimelineProgress(label string, interval time.Duration, src func() *obs.Timeline) (stop func()) {
	if interval <= 0 || src == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var prev obs.Window
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				tl := src()
				if tl == nil {
					continue
				}
				tot := tl.Totals()
				rate := float64(tot.Completed-prev.Completed) / interval.Seconds()
				inflight := int64(tot.Started) - int64(tot.Completed) - int64(tot.Failed)
				fmt.Fprintf(os.Stderr, "%s t=%5.1fs started %d completed %d failed %d inflight %d (%.0f hs/s)\n",
					label, time.Since(start).Seconds(), tot.Started, tot.Completed, tot.Failed, inflight, rate)
				prev = tot
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// writeTimelineArtifacts writes base.jsonl (digest-checkable, appendable)
// and base.csv (TimelineCSVHeader schema) for the run's timeline, creating
// the parent directory as needed. Paths are announced on stderr so stdout
// stays machine-readable where a subcommand promises that.
func writeTimelineArtifacts(tl *obs.Timeline, base string) error {
	if tl == nil {
		return errors.New("timeline: run produced no windowed telemetry (is -window set?)")
	}
	if dir := filepath.Dir(base); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	write := func(path string, emit func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".jsonl", tl.WriteJSONL); err != nil {
		return err
	}
	if err := write(base+".csv", tl.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "timeline: wrote %s.jsonl and %s.csv (digest %s)\n", base, base, tl.Digest())
	return nil
}

// renderTimeline prints the per-window table plus the totals row: the human
// view of what the CSV artifact holds, with the digest for cross-checking
// against other runs.
func renderTimeline(w io.Writer, tl *obs.Timeline) error {
	wins := tl.Windows()
	sec := tl.Interval().Seconds()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "window\tt(ms)\tstarted\tcompleted\tfailed\tresumed\twarmup\tinflight\ths/s\tp50(ms)\tp95(ms)\t")
	var started, completed, failed uint64
	for i := range wins {
		win := &wins[i]
		started += win.Started
		completed += win.Completed
		failed += win.Failed
		inflight := int64(started) - int64(completed) - int64(failed)
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%s\t%s\t\n",
			win.Index, float64(win.Index)*sec*1000,
			win.Started, win.Completed, win.Failed, win.Resumed, win.Warmup,
			inflight,
			float64(win.Completed)/sec,
			ms(win.Hist.Quantile(0.50)), ms(win.Hist.Quantile(0.95)))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	tot := tl.Totals()
	fmt.Fprintf(w, "totals: %d windows at %v, started %d, completed %d (%d warmup, %d resumed), failed %d\n",
		len(wins), tl.Interval(), tot.Started, tot.Completed, tot.Warmup, tot.Resumed, tot.Failed)
	fmt.Fprintf(w, "p50 %sms p95 %sms (post-warmup), digest %s\n",
		ms(tot.Hist.Quantile(0.50)), ms(tot.Hist.Quantile(0.95)), tl.Digest())
	return nil
}

// runTimeline is the `pqbench timeline` subcommand: it loads a timeline
// JSONL artifact (verifying schema and digest), renders the per-window
// table, and optionally re-emits the CSV form.
func runTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	csvPath := fs.String("csv", "", "also write the timeline as CSV to this file")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("timeline: usage: pqbench timeline [-csv out.csv] <timeline.jsonl>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	tl, err := obs.ReadTimelineJSONL(f)
	if err != nil {
		return err
	}
	if err := renderTimeline(os.Stdout, tl); err != nil {
		return err
	}
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := tl.WriteCSV(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline: CSV written to %s\n", *csvPath)
	}
	return nil
}
