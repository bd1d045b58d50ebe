package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pqtls/internal/netsim"
	"pqtls/internal/tls13"
)

// The suite lists of the paper's tables, in presentation order.

// Table2aKEMs are the 23 key agreements of Table 2a, grouped by level.
var Table2aKEMs = []string{
	"x25519", "bikel1", "hqc128", "kyber512", "kyber90s512",
	"p256", "p256_bikel1", "p256_hqc128", "p256_kyber512",
	"bikel3", "hqc192", "kyber768", "kyber90s768",
	"p384", "p384_bikel3", "p384_hqc192", "p384_kyber768",
	"hqc256", "kyber1024", "kyber90s1024",
	"p521", "p521_hqc256", "p521_kyber1024",
}

// Table2bSigs are the signature algorithms of Table 2b.
var Table2bSigs = []string{
	"rsa:1024", "rsa:2048",
	"falcon512", "rsa:3072", "rsa:4096", "sphincs128", "p256_falcon512", "p256_sphincs128",
	"dilithium2", "dilithium2_aes", "p256_dilithium2",
	"dilithium3", "dilithium3_aes", "sphincs192", "p384_dilithium3", "p384_sphincs192",
	"dilithium5", "dilithium5_aes", "falcon1024", "sphincs256",
	"p521_dilithium5", "p521_falcon1024", "p521_sphincs256",
}

// Table4bSigs adds the hybrid that only appears in Table 4b.
var Table4bSigs = append(append([]string{}, Table2bSigs...), "rsa3072_dilithium2")

// BaselineKEM and BaselineSig fix the other axis, as in Section 5.
const (
	BaselineKEM = "x25519"
	BaselineSig = "rsa:2048"
)

// Table3Pairs are the white-box KA/SA selections of Table 3.
var Table3Pairs = []struct{ KEM, Sig string }{
	{"x25519", "rsa:2048"},
	{"kyber512", "dilithium2"},
	{"bikel1", "dilithium2"},
	{"kyber512", "sphincs128"},
	{"hqc128", "falcon512"},
	{"p256_kyber512", "p256_dilithium2"},
	{"kyber768", "dilithium3"},
	{"kyber1024", "dilithium5"},
}

// levelGroups are the paper's deviation-analysis groups (levels one and two
// are grouped; hybrids excluded; rsa:3072 is the only RSA).
var levelGroups = []struct {
	Name string
	KEMs []string
	Sigs []string
}{
	{
		Name: "level1",
		KEMs: []string{"x25519", "p256", "kyber512", "kyber90s512", "hqc128", "bikel1"},
		Sigs: []string{"rsa:3072", "falcon512", "sphincs128", "dilithium2", "dilithium2_aes"},
	},
	{
		Name: "level3",
		KEMs: []string{"p384", "kyber768", "kyber90s768", "hqc192", "bikel3"},
		Sigs: []string{"dilithium3", "dilithium3_aes", "sphincs192"},
	},
	{
		Name: "level5",
		KEMs: []string{"p521", "kyber1024", "kyber90s1024", "hqc256"},
		Sigs: []string{"dilithium5", "dilithium5_aes", "falcon1024", "sphincs256"},
	},
}

// SweepConfig carries the knobs shared by every table/figure sweep: the
// per-cell sample count, the server buffering policy, and the worker-pool
// width (0 = one per CPU). Zero value = 15 samples… callers normally set
// Samples explicitly.
type SweepConfig struct {
	Samples int
	Buffer  tls13.BufferPolicy
	Workers int
}

// campaign builds one grid cell from the sweep knobs.
func (c SweepConfig) campaign(kemName, sigName string, link netsim.LinkConfig, seed int64) CampaignOptions {
	return CampaignOptions{
		KEM: kemName, Sig: sigName, Link: link, Buffer: c.Buffer,
		Samples: c.Samples, Seed: seed,
	}
}

// RunTable2a regenerates Table 2a: every KA with rsa:2048.
func RunTable2a(cfg SweepConfig) ([]*CampaignResult, error) {
	specs := make([]CampaignOptions, len(Table2aKEMs))
	for i, k := range Table2aKEMs {
		specs[i] = cfg.campaign(k, BaselineSig, ScenarioTestbed, 1)
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("table2a: %w", err)
	}
	return rows, nil
}

// RunTable2b regenerates Table 2b: every SA with X25519.
func RunTable2b(cfg SweepConfig) ([]*CampaignResult, error) {
	specs := make([]CampaignOptions, len(Table2bSigs))
	for i, s := range Table2bSigs {
		specs[i] = cfg.campaign(BaselineKEM, s, ScenarioTestbed, 1)
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("table2b: %w", err)
	}
	return rows, nil
}

// Deviation is one cell of Figure 3: how much faster (positive) or slower
// (negative) the measured combination was than the independence prediction
// E(k,s) = M(k, rsa2048) + M(x25519, s) - M(x25519, rsa2048).
type Deviation struct {
	Level     string
	KEM, Sig  string
	Expected  time.Duration
	Measured  time.Duration
	Deviation time.Duration // Expected - Measured (positive = faster than predicted)
}

// RunDeviation regenerates Figure 3a (BufferDefault) or 3b (BufferImmediate).
// All unique cells of the analysis — the global baseline, the per-KA and
// per-SA marginals, and every combination — run through one worker grid.
func RunDeviation(cfg SweepConfig) ([]Deviation, error) {
	type cell struct{ k, s string }
	idx := map[cell]int{}
	var specs []CampaignOptions
	add := func(k, s string) {
		c := cell{k, s}
		if _, ok := idx[c]; ok {
			return
		}
		idx[c] = len(specs)
		specs = append(specs, cfg.campaign(k, s, ScenarioTestbed, 2))
	}
	add(BaselineKEM, BaselineSig)
	for _, grp := range levelGroups {
		for _, k := range grp.KEMs {
			add(k, BaselineSig)
		}
		for _, s := range grp.Sigs {
			add(BaselineKEM, s)
		}
		for _, k := range grp.KEMs {
			for _, s := range grp.Sigs {
				add(k, s)
			}
		}
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("deviation: %w", err)
	}
	m := func(k, s string) time.Duration { return rows[idx[cell{k, s}]].TotalMedian }
	base := m(BaselineKEM, BaselineSig)
	var out []Deviation
	for _, grp := range levelGroups {
		for _, k := range grp.KEMs {
			for _, s := range grp.Sigs {
				e := m(k, BaselineSig) + m(BaselineKEM, s) - base
				out = append(out, Deviation{
					Level: grp.Name, KEM: k, Sig: s,
					Expected: e, Measured: m(k, s), Deviation: e - m(k, s),
				})
			}
		}
	}
	return out, nil
}

// Improvement is one cell of Figure 3c: default-buffering latency minus
// optimized-buffering latency (positive = the optimization helped).
type Improvement struct {
	Level    string
	KEM, Sig string
	Default  time.Duration
	Opt      time.Duration
	Gain     time.Duration
}

// RunBufferImprovement regenerates Figure 3c. The default- and
// optimized-buffering runs of every combination all share one worker grid.
func RunBufferImprovement(cfg SweepConfig) ([]Improvement, error) {
	type combo struct {
		level, k, s string
	}
	var combos []combo
	var specs []CampaignOptions
	for _, grp := range levelGroups {
		for _, k := range grp.KEMs {
			for _, s := range grp.Sigs {
				combos = append(combos, combo{grp.Name, k, s})
				def := cfg.campaign(k, s, ScenarioTestbed, 3)
				def.Buffer = tls13.BufferDefault
				opt := cfg.campaign(k, s, ScenarioTestbed, 3)
				opt.Buffer = tls13.BufferImmediate
				specs = append(specs, def, opt)
			}
		}
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("improvement: %w", err)
	}
	out := make([]Improvement, len(combos))
	for i, c := range combos {
		def, opt := rows[2*i], rows[2*i+1]
		out[i] = Improvement{
			Level: c.level, KEM: c.k, Sig: c.s,
			Default: def.TotalMedian, Opt: opt.TotalMedian,
			Gain: def.TotalMedian - opt.TotalMedian,
		}
	}
	return out, nil
}

// RunTable3 regenerates the white-box Table 3 rows.
func RunTable3(cfg SweepConfig) ([]*CampaignResult, error) {
	specs := make([]CampaignOptions, len(Table3Pairs))
	for i, pair := range Table3Pairs {
		specs[i] = cfg.campaign(pair.KEM, pair.Sig, ScenarioTestbed, 4)
		specs[i].Buffer = tls13.BufferImmediate
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	return rows, nil
}

// ScenarioRow is one Table 4 row: one suite across all network scenarios.
type ScenarioRow struct {
	KEM, Sig string
	// Median full-handshake latency per scenario, keyed by scenario name.
	Latency map[string]time.Duration
}

// RunScenarios regenerates Table 4a (vary KA) or 4b (vary SA) depending on
// which list is passed; each suite is measured under every emulation. The
// full suite × scenario matrix runs through one worker grid.
func RunScenarios(kems, sigs []string, cfg SweepConfig) ([]ScenarioRow, error) {
	var suites []struct{ k, s string }
	for _, k := range kems {
		suites = append(suites, struct{ k, s string }{k, BaselineSig})
	}
	for _, s := range sigs {
		suites = append(suites, struct{ k, s string }{BaselineKEM, s})
	}
	scenarios := netsim.Scenarios()
	var specs []CampaignOptions
	for _, suite := range suites {
		for _, sc := range scenarios {
			spec := cfg.campaign(suite.k, suite.s, sc, 5)
			spec.Buffer = tls13.BufferImmediate
			specs = append(specs, spec)
		}
	}
	rows, err := runCampaignGrid(specs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("scenarios: %w", err)
	}
	out := make([]ScenarioRow, len(suites))
	for i, suite := range suites {
		row := ScenarioRow{KEM: suite.k, Sig: suite.s, Latency: map[string]time.Duration{}}
		for j, sc := range scenarios {
			row.Latency[sc.Name] = rows[i*len(scenarios)+j].TotalMedian
		}
		out[i] = row
	}
	return out, nil
}

// CheckLossMonotone is the Table 4 sanity gate: the high-loss scenario
// differs from the baseline only by a 10% drop rate, so its median can
// never legitimately beat the loss-free median. A violation means the
// transport model is crediting loss (the bug class this gate pins down)
// rather than paying for it.
func CheckLossMonotone(rows []ScenarioRow) error {
	for _, row := range rows {
		none, okN := row.Latency[netsim.ScenarioNone.Name]
		lossy, okL := row.Latency[netsim.ScenarioHighLoss.Name]
		if !okN || !okL {
			continue
		}
		if lossy < none {
			return fmt.Errorf("loss monotonicity violated for %s/%s: high-loss median %v < loss-free median %v",
				row.KEM, row.Sig, lossy, none)
		}
	}
	return nil
}

// Rank is one entry of Figure 4: the algorithm and its 0-10 log-scaled
// latency score (0 = fastest).
type Rank struct {
	Name  string
	Score int
	Total time.Duration
}

// RankFromResults converts campaign rows into the paper's Figure 4 ranking:
// log of total latency, linearly scaled to [0, 10], rounded.
func RankFromResults(results []*CampaignResult, label func(*CampaignResult) string) []Rank {
	if len(results) == 0 {
		return nil
	}
	logs := make([]float64, len(results))
	minL, maxL := math.Inf(1), math.Inf(-1)
	for i, r := range results {
		logs[i] = math.Log(float64(r.TotalMedian))
		minL = math.Min(minL, logs[i])
		maxL = math.Max(maxL, logs[i])
	}
	out := make([]Rank, len(results))
	for i, r := range results {
		score := 0
		if maxL > minL {
			score = int(math.Round((logs[i] - minL) / (maxL - minL) * 10))
		}
		out[i] = Rank{Name: label(r), Score: score, Total: r.TotalMedian}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		return out[i].Total < out[j].Total
	})
	return out
}

// AttackSurface quantifies Section 5.5: amplification (server bytes per
// client byte) and CPU asymmetry (server CPU per client CPU).
type AttackSurface struct {
	KEM, Sig      string
	Amplification float64
	CPUAsymmetry  float64
}

// AttackSurfaceFromResults derives the Section 5.5 view from Table 2/3 rows.
func AttackSurfaceFromResults(results []*CampaignResult) []AttackSurface {
	out := make([]AttackSurface, 0, len(results))
	for _, r := range results {
		a := AttackSurface{KEM: r.KEM, Sig: r.Sig}
		if r.ClientBytes > 0 {
			a.Amplification = float64(r.ServerBytes) / float64(r.ClientBytes)
		}
		if r.ClientCPU > 0 {
			a.CPUAsymmetry = float64(r.ServerCPU) / float64(r.ClientCPU)
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Amplification > out[j].Amplification })
	return out
}
