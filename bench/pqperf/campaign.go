//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"pqtls"
	"pqtls/internal/harness"
)

// The campaign grid: six suites that between them reach every KEM and
// signature family of the repository, over three of the paper's links.
var (
	gridSuites = [][2]string{
		{"kyber768", "dilithium3"},
		{"x25519", "rsa:2048"},
		{"p256_kyber512", "falcon512"},
		{"hqc128", "dilithium2"},
		{"bikel1", "ed25519"},
		{"x25519", "sphincs128"},
	}
	gridLinks = []pqtls.LinkConfig{pqtls.ScenarioTestbed, pqtls.ScenarioHighLoss, pqtls.ScenarioLTEM}
)

const (
	// gridSamples is the number of modeled handshakes per cell of a checked
	// pass; the golden file is generated at this value.
	gridSamples = 4
	// goldenSeed is the seed whose rows are committed under bench/golden.
	goldenSeed = 1
	// setupProbeEnv makes the binary run campaignSetupProbe and exit. The
	// harness caches credentials for the life of a process, so campaign
	// set-up can only be timed repeatedly in fresh processes.
	setupProbeEnv = "PQPERF_CAMPAIGN_SETUP_PROBE"
)

// cellTiming is the wall time of one RunCampaign call.
type cellTiming struct {
	wall    time.Duration
	samples int
}

// gridPass runs every cell of the grid once and times each RunCampaign call.
func gridPass(seed int64, samples, workers int) ([]*pqtls.CampaignResult, []cellTiming, error) {
	var rows []*pqtls.CampaignResult
	var timings []cellTiming
	for _, s := range gridSuites {
		for _, link := range gridLinks {
			start := time.Now()
			row, err := pqtls.RunCampaign(pqtls.CampaignOptions{
				KEM: s[0], Sig: s[1], Link: link, Buffer: pqtls.BufferDefault,
				Samples: samples, Seed: seed, Workers: workers, Timing: pqtls.TimingModel,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("campaign %s+%s over %s: %w", s[0], s[1], link.Name, err)
			}
			rows = append(rows, row)
			timings = append(timings, cellTiming{time.Since(start), samples})
		}
	}
	return rows, timings, nil
}

func gridCSV(rows []*pqtls.CampaignResult) ([]byte, error) {
	var b bytes.Buffer
	if err := harness.WriteLatenciesCSV(&b, rows); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func goldenPath(e *env) string {
	return filepath.Join(e.goldenDir, fmt.Sprintf("campaign_grid_seed%d.csv", goldenSeed))
}

// writeGolden regenerates the committed rows, for a change that means to
// alter them.
func writeGolden(e *env) error {
	rows, _, err := gridPass(goldenSeed, gridSamples, 1)
	if err != nil {
		return err
	}
	csv, err := gridCSV(rows)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.goldenDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(e), csv, 0o644)
}

// campaignSetupProbe is the body of a set-up probe process: credentials for
// every suite of the grid and one modeled handshake on each.
func campaignSetupProbe() int {
	for _, s := range gridSuites {
		if _, err := pqtls.RunCampaign(pqtls.CampaignOptions{
			KEM: s[0], Sig: s[1], Link: pqtls.ScenarioTestbed, Samples: 1, Seed: 1, Workers: 1,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// timeCampaignSetup runs the set-up probe in n fresh processes and returns
// the median wall time from exec to exit.
func timeCampaignSetup(ctx context.Context, n int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self)
		cmd.Env = append(os.Environ(), setupProbeEnv+"=1")
		start := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("campaign set-up probe: %w\n%s", err, out)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// referenceRows runs the checked grid on one worker and, for the golden
// seed, compares its rows with the committed file. The pass doubles as
// warm-up: credentials and code paths of every cell are hot before anything
// is timed.
func referenceRows(e *env, seed int64, res *result) ([]byte, error) {
	ref, _, err := gridPass(seed, gridSamples, 1)
	if err != nil {
		return nil, err
	}
	refCSV, err := gridCSV(ref)
	if err != nil {
		return nil, err
	}
	if seed == goldenSeed {
		want, err := os.ReadFile(goldenPath(e))
		if err != nil {
			return nil, err
		}
		res.check(bytes.Equal(refCSV, want), "campaign rows differ from %s", goldenPath(e))
	}
	return refCSV, nil
}

// gridSegment runs grid passes for about dur and returns their cell timings
// as a phase: one timing per RunCampaign call, in wall time per modeled
// handshake. seedOf gives the seed of each pass; check, when non-nil, sees
// the rows of every pass.
func gridSegment(ctx context.Context, dur time.Duration, samples, workers int, seedOf func(pass int) int64,
	check func(rows []*pqtls.CampaignResult) error) (*phase, error) {
	p := &phase{}
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for pass := 0; time.Since(start) < dur && ctx.Err() == nil; pass++ {
		rows, timings, err := gridPass(seedOf(pass), samples, workers)
		if err != nil {
			return nil, err
		}
		if check != nil {
			if err := check(rows); err != nil {
				return nil, err
			}
		}
		for _, t := range timings {
			p.lats = append(p.lats, t.wall/time.Duration(t.samples))
			p.hs += t.samples
		}
	}
	p.elapsed = time.Since(start)
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	p.selfCPU = cpu1 - cpu0
	p.attempted, p.onTime = p.hs, p.hs
	p.cells = len(gridSuites) * len(gridLinks)
	return p, nil
}

// runCampaignGrid is the campaign_grid workload. Its seq phase runs one
// modeled handshake at a time (Workers 1, one sample per cell, a new seed
// each pass); its load phase runs checked passes of gridSamples per cell on
// every core, the way tables are regenerated. Both report wall time per
// modeled handshake and cell, a cell's time being its median over a
// segment's passes, so the percentiles are over the grid's mix of suites and
// links: the median is a Kyber- or HQC-class cell, the 99th percentile of 18
// cells the slowest, a BIKE cell.
func runCampaignGrid(ctx context.Context, e *env, seed int64, seconds float64) (*result, error) {
	res := newResult()
	before, err := e.ref.index()
	if err != nil {
		return nil, err
	}
	setup, err := timeCampaignSetup(ctx, e.setupRuns)
	if err != nil {
		return nil, err
	}
	after, err := e.ref.index()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", "s", setup/((before+after)/2), e.setupRuns)
	refCSV, err := referenceRows(e, seed, res)
	if err != nil {
		return nil, err
	}

	segs := 0
	seq, err := measureSegments(e.ref, e.segments, func(int) (*phase, error) {
		segs++
		base := seed + int64(segs)*1000
		return gridSegment(ctx, share(seconds, seqShare)/time.Duration(e.segments), 1, 1,
			func(pass int) int64 { return base + int64(pass) }, nil)
	})
	if err != nil {
		return nil, err
	}

	// Wire volume is read off the loss-free testbed cells, the paper's
	// Table 2 columns; under loss it depends on which packets the seed drops.
	var wireBytes, wireCells int
	load, err := measureSegments(e.ref, e.segments, func(int) (*phase, error) {
		return gridSegment(ctx, share(seconds, 1-seqShare)/time.Duration(e.segments), gridSamples, e.nproc,
			func(int) int64 { return seed },
			func(rows []*pqtls.CampaignResult) error {
				got, err := gridCSV(rows)
				if err != nil {
					return err
				}
				res.check(bytes.Equal(got, refCSV), "campaign rows with %d workers differ from the rows with 1", e.nproc)
				for _, r := range rows {
					if r.Link == pqtls.ScenarioTestbed.Name {
						wireBytes += r.ClientBytes + r.ServerBytes
						wireCells++
					}
				}
				return nil
			})
	})
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res.Attempted += seq.hs + load.hs
	res.setPhaseMetrics(seq, load)
	res.set("wire_bytes_per_hs", "B", float64(wireBytes)/float64(wireCells), wireCells)
	return res, nil
}
