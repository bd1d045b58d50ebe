package harness

import (
	"time"

	"pqtls/internal/netsim"
	"pqtls/internal/perf"
	"pqtls/internal/stats"
	"pqtls/internal/tls13"
)

// MeasurementPeriod is the paper's sequential-handshake campaign length.
const MeasurementPeriod = 60 * time.Second

// CampaignOptions configure a sequence of handshakes for one suite.
type CampaignOptions struct {
	KEM    string
	Sig    string
	Link   netsim.LinkConfig
	Buffer tls13.BufferPolicy
	// Samples is the number of real handshakes to execute; the 60-second
	// handshake count is extrapolated from the mean cycle time (running
	// tens of thousands of real SPHINCS+ handshakes per table cell would
	// measure patience, not TLS).
	Samples int
	// Seed bases the deterministic loss processes.
	Seed int64
	// CWND overrides the initial congestion window (0 = default 10).
	CWND int
	// ChainDepth is the certificate-chain length (default 1).
	ChainDepth int
	// Resume measures PSK-resumed handshakes instead of full ones.
	Resume bool
	// Profile enables white-box collection.
	Profile bool
	// Workers bounds the sample-level parallelism (0 = one per CPU).
	// Because samples are independently seeded and modeled timing keeps
	// the virtual clocks jitter-free, the aggregated result is identical
	// for any worker count.
	Workers int
	// Timing selects modeled (default) or measured compute time.
	// TimingReal forces sequential execution.
	Timing Timing
}

// CampaignResult aggregates one suite's campaign, i.e. one table row.
type CampaignResult struct {
	KEM, Sig string
	Link     string
	Samples  int

	// Medians of the black-box phases (Table 2's two latency bars and
	// Table 4's full-handshake latency).
	PartAMedian, PartBMedian, TotalMedian time.Duration

	// Handshakes60s extrapolates the paper's "# Total" column.
	Handshakes60s int

	// Median wire volume per handshake and side (Table 2's data columns).
	ClientBytes, ServerBytes int
	// Median packets per handshake and side (Table 3).
	ClientPackets, ServerPackets int

	// Mean CPU per handshake and side (Table 3's CPU cost).
	ClientCPU, ServerCPU time.Duration

	// White-box profiles (populated when Profile was set).
	ClientProfile, ServerProfile perf.Snapshot
}

// HandshakeRate is the extrapolated handshakes per second.
func (r CampaignResult) HandshakeRate() float64 {
	return float64(r.Handshakes60s) / MeasurementPeriod.Seconds()
}

// normalizeCampaign applies option defaults in place.
func normalizeCampaign(opts *CampaignOptions) {
	if opts.Samples <= 0 {
		opts.Samples = 15
	}
}

// sampleResult is one handshake's contribution to a campaign row.
type sampleResult struct {
	res                    *HandshakeResult
	clientProf, serverProf *perf.Profiler
}

// runCampaignSample executes sample i of a campaign. Each sample owns its
// entire simulation state (link, TCP, tap, endpoints, profilers, meters),
// so samples are safe to run concurrently.
func runCampaignSample(opts CampaignOptions, i int) (*sampleResult, error) {
	s := &sampleResult{}
	if opts.Profile {
		s.clientProf = perf.NewProfiler()
		s.serverProf = perf.NewProfiler()
	}
	res, err := RunHandshake(RunOptions{
		KEM: opts.KEM, Sig: opts.Sig, Link: opts.Link, Buffer: opts.Buffer,
		Seed:       opts.Seed + int64(i)*7919,
		Rand:       newSampleDRBG(opts.KEM, opts.Sig, opts.Link.Name, opts.Seed+int64(i)*7919),
		CWND:       opts.CWND,
		ChainDepth: opts.ChainDepth,
		Resume:     opts.Resume,
		Timing:     opts.Timing,
		ClientProf: s.clientProf, ServerProf: s.serverProf,
	})
	if err != nil {
		return nil, err
	}
	s.res = res
	return s, nil
}

// aggregateCampaign folds per-sample results (in sample order) into a row.
// It is the buffered reference implementation: the grid itself streams
// samples through cellAggregator (see streaming.go), and the differential
// tests pin the two to byte-identical rows.
func aggregateCampaign(opts CampaignOptions, samples []*sampleResult) *CampaignResult {
	var (
		partA, partB, total, cycles []time.Duration
		cBytes, sBytes              []int
		cPkts, sPkts                []int
		cCPU, sCPU                  time.Duration
	)
	for _, s := range samples {
		res := s.res
		partA = append(partA, res.Phases.PartA)
		partB = append(partB, res.Phases.PartB)
		total = append(total, res.Phases.Total())
		cycles = append(cycles, res.Cycle)
		cBytes = append(cBytes, res.ClientBytes)
		sBytes = append(sBytes, res.ServerBytes)
		cPkts = append(cPkts, res.ClientPackets)
		sPkts = append(sPkts, res.ServerPackets)
		cCPU += res.ClientCPU
		sCPU += res.ServerCPU
	}

	out := &CampaignResult{
		KEM: opts.KEM, Sig: opts.Sig, Link: opts.Link.Name, Samples: opts.Samples,
		PartAMedian:   stats.Median(partA),
		PartBMedian:   stats.Median(partB),
		TotalMedian:   stats.Median(total),
		ClientBytes:   medianInt(cBytes),
		ServerBytes:   medianInt(sBytes),
		ClientPackets: medianInt(cPkts),
		ServerPackets: medianInt(sPkts),
		ClientCPU:     cCPU / time.Duration(opts.Samples),
		ServerCPU:     sCPU / time.Duration(opts.Samples),
	}
	meanCycle := stats.Mean(cycles)
	if meanCycle > 0 {
		out.Handshakes60s = int(MeasurementPeriod / meanCycle)
	}
	if opts.Profile {
		clientProf := perf.NewProfiler()
		serverProf := perf.NewProfiler()
		for _, s := range samples {
			clientProf.Merge(s.clientProf)
			serverProf.Merge(s.serverProf)
		}
		out.ClientProfile = clientProf.Snapshot()
		out.ServerProfile = serverProf.Snapshot()
	}
	return out
}

// RunCampaign executes the campaign and aggregates the row. Samples fan out
// across opts.Workers goroutines (0 = one per CPU) without changing the
// result.
func RunCampaign(opts CampaignOptions) (*CampaignResult, error) {
	rows, err := runCampaignGrid([]CampaignOptions{opts}, opts.Workers)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func medianInt(xs []int) int {
	ds := make([]time.Duration, len(xs))
	for i, x := range xs {
		ds[i] = time.Duration(x)
	}
	return int(stats.Median(ds))
}
