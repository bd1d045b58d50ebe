package harness

import (
	"fmt"
	"time"

	"pqtls/internal/netsim"
	"pqtls/internal/stats"
	"pqtls/internal/tls13"
)

// This file holds the extension experiments beyond the paper's tables:
// the initial-CWND tuning sweep the paper's conclusion calls out as "an
// important tuning factor for PQ TLS", and the all-sphincs variant sweep
// the artifact uses to pick the fastest SPHINCS+ configuration.

// CWNDResult is one cell of the CWND sweep: a suite's high-delay latency
// under a given initial congestion window.
type CWNDResult struct {
	KEM, Sig string
	CWND     int
	// Total is the median full-handshake latency at 1 s RTT; RTTs is the
	// latency expressed in round trips (the cliff metric).
	Total time.Duration
	RTTs  float64
}

// CWNDSweepSuites are flights around and beyond the default 10xMSS window.
var CWNDSweepSuites = []struct{ KEM, Sig string }{
	{"x25519", "rsa:2048"},   // well under one window
	{"x25519", "dilithium3"}, // just under
	{"x25519", "dilithium5"}, // just over: the paper's 2-RTT example
	{"x25519", "sphincs128"}, // ~2 windows
	{"x25519", "sphincs256"}, // ~4 windows
}

// RunCWNDSweep measures the sweep suites at 1 s RTT for each initial CWND,
// demonstrating that raising the window restores 1-RTT handshakes for PQ
// flights (the conclusion's tuning recommendation).
func RunCWNDSweep(cwnds []int, cfg SweepConfig) ([]CWNDResult, error) {
	if len(cwnds) == 0 {
		cwnds = []int{10, 20, 40, 80}
	}
	var specs []CampaignOptions
	for _, suite := range CWNDSweepSuites {
		for _, cwnd := range cwnds {
			spec := cfg.campaign(suite.KEM, suite.Sig, netsim.ScenarioHighDelay, 6)
			spec.Buffer = tls13.BufferImmediate
			spec.CWND = cwnd
			specs = append(specs, spec)
		}
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("cwnd sweep: %w", err)
	}
	out := make([]CWNDResult, len(rows))
	for i, r := range rows {
		out[i] = CWNDResult{
			KEM: specs[i].KEM, Sig: specs[i].Sig, CWND: specs[i].CWND,
			Total: r.TotalMedian,
			RTTs:  float64(r.TotalMedian) / float64(netsim.ScenarioHighDelay.RTT),
		}
	}
	return out, nil
}

// SphincsVariants are the registered SPHINCS+ configurations: the fast
// sets used in the paper's tables and the small sets the all-sphincs
// experiment compares them against.
var SphincsVariants = []string{
	"sphincs128", "sphincs128s",
	"sphincs192", "sphincs192s",
	"sphincs256", "sphincs256s",
}

// RunAllSphincs reproduces the artifact's all-sphincs experiment: measure
// every SPHINCS+ variant (with X25519) and report latency vs. data volume,
// identifying the fastest configuration per level.
func RunAllSphincs(cfg SweepConfig) ([]*CampaignResult, error) {
	specs := make([]CampaignOptions, len(SphincsVariants))
	for i, v := range SphincsVariants {
		specs[i] = cfg.campaign(BaselineKEM, v, ScenarioTestbed, 8)
		specs[i].Buffer = tls13.BufferImmediate
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("all-sphincs: %w", err)
	}
	return rows, nil
}

// HRRResult compares a direct 1-RTT handshake against the 2-RTT
// HelloRetryRequest fallback for the same server-required group.
type HRRResult struct {
	KEM      string
	Scenario string
	Direct   time.Duration // client guessed the right group
	Fallback time.Duration // client guessed x25519, server forced KEM
	Penalty  time.Duration
}

// RunHRRComparison quantifies what the paper's "2-RTT fallback never
// occurred" configuration avoided: for each PQ group, measure the
// handshake with a correct key-share guess and with an x25519 guess that
// the server rejects via HelloRetryRequest.
func RunHRRComparison(kems []string, link netsim.LinkConfig, cfg SweepConfig) ([]HRRResult, error) {
	if len(kems) == 0 {
		kems = []string{"kyber512", "hqc128", "p256_kyber512", "kyber768"}
	}
	specs := make([]CampaignOptions, len(kems))
	for i, k := range kems {
		specs[i] = cfg.campaign(k, BaselineSig, link, 9)
		specs[i].Buffer = tls13.BufferImmediate
	}
	directs, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("hrr direct: %w", err)
	}
	out := make([]HRRResult, len(kems))
	for ki, k := range kems {
		// The fallback path has no campaign wrapper; fan its samples out
		// through the same pool with ordered collection.
		samples := cfg.Samples
		if samples <= 0 {
			samples = 15
		}
		totals := make([]time.Duration, samples)
		err := forEach(samples, cfg.Workers, func(i int) error {
			res, err := RunHandshake(RunOptions{
				KEM: k, Sig: BaselineSig, Link: link, Buffer: tls13.BufferImmediate,
				Seed: 9 + int64(i)*7919, ClientKEM: "x25519", ClientSupported: []string{k},
			})
			if err != nil {
				return err
			}
			totals[i] = res.Phases.Total()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("hrr fallback %s: %w", k, err)
		}
		fallback := stats.Median(totals)
		out[ki] = HRRResult{
			KEM: k, Scenario: link.Name,
			Direct: directs[ki].TotalMedian, Fallback: fallback,
			Penalty: fallback - directs[ki].TotalMedian,
		}
	}
	return out, nil
}

// ChainDepthResult measures how the presented chain length scales the
// handshake — PQ signatures make every extra certificate expensive, the
// motivation behind mixed-PKI proposals the paper cites (Paul et al.).
type ChainDepthResult struct {
	Sig         string
	Depth       int
	Total       time.Duration
	ServerBytes int
}

// RunChainDepth sweeps chain depths 1..3 for the given SAs over the
// testbed link.
func RunChainDepth(sigs []string, cfg SweepConfig) ([]ChainDepthResult, error) {
	if len(sigs) == 0 {
		sigs = []string{"rsa:2048", "dilithium2", "falcon512"}
	}
	var specs []CampaignOptions
	for _, s := range sigs {
		for depth := 1; depth <= 3; depth++ {
			spec := cfg.campaign(BaselineKEM, s, ScenarioTestbed, 10)
			spec.Buffer = tls13.BufferImmediate
			spec.ChainDepth = depth
			specs = append(specs, spec)
		}
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("chain depth: %w", err)
	}
	out := make([]ChainDepthResult, len(rows))
	for i, r := range rows {
		out[i] = ChainDepthResult{
			Sig: specs[i].Sig, Depth: specs[i].ChainDepth,
			Total: r.TotalMedian, ServerBytes: r.ServerBytes,
		}
	}
	return out, nil
}

// ResumptionResult compares a full handshake with a PSK-resumed one for the
// same suite: resumption removes the Certificate/CertificateVerify flight,
// amortizing the PQ authentication cost entirely.
type ResumptionResult struct {
	KEM, Sig    string
	Full        time.Duration
	Resumed     time.Duration
	FullBytes   int // server wire bytes, full handshake
	ResumeBytes int // server wire bytes, resumed handshake
}

// RunResumptionComparison measures full vs resumed handshakes per suite.
func RunResumptionComparison(cfg SweepConfig) ([]ResumptionResult, error) {
	suites := []struct{ k, s string }{
		{"x25519", "rsa:2048"},
		{"kyber512", "dilithium2"},
		{"kyber512", "falcon512"},
		{"kyber512", "sphincs128"},
		{"p256_kyber512", "p256_dilithium2"},
	}
	var specs []CampaignOptions
	for _, suite := range suites {
		full := cfg.campaign(suite.k, suite.s, ScenarioTestbed, 12)
		full.Buffer = tls13.BufferImmediate
		resumed := full
		resumed.Resume = true
		specs = append(specs, full, resumed)
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("resumption: %w", err)
	}
	out := make([]ResumptionResult, len(suites))
	for i, suite := range suites {
		full, resumed := rows[2*i], rows[2*i+1]
		out[i] = ResumptionResult{
			KEM: suite.k, Sig: suite.s,
			Full: full.TotalMedian, Resumed: resumed.TotalMedian,
			FullBytes: full.ServerBytes, ResumeBytes: resumed.ServerBytes,
		}
	}
	return out, nil
}
