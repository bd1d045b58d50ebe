package harness

import (
	"strings"
	"time"

	"pqtls/internal/tls13"
)

// Timing names how compute cost enters the simulation's virtual clocks.
// TimingModel is the only mode.
type Timing int

// TimingModel charges each public-key operation its modeled cost from
// DefaultCostModel. Crypto still executes for real — outputs are verified —
// but the virtual time it consumes is a fixed per-(operation, algorithm)
// constant, so a campaign's results are a deterministic function of the
// suite, the link, and the seed. This is what allows samples to fan out
// across workers: a sample computes the same latencies no matter which
// worker runs it or how loaded the host is.
const TimingModel Timing = 0

// kemCost is the modeled cost of one KEM's three operations.
type kemCost struct{ Keygen, Encaps, Decaps time.Duration }

// sigCost is the modeled cost of one signature scheme's three operations.
type sigCost struct{ Keygen, Sign, Verify time.Duration }

// CostModel maps algorithm names to modeled per-operation compute costs.
// Hybrid names resolve to the sum of their components, so only the primitive
// algorithms need entries.
type CostModel struct {
	KEM map[string]kemCost
	Sig map[string]sigCost
}

// DefaultCostModel carries per-operation costs calibrated against this
// repository's pure-Go implementations on the reference machine (see
// EXPERIMENTS.md): the absolute values track recorded medians and the
// relations the paper's Table 2/3 depend on are preserved — RSA signing
// orders of magnitude above verification, BIKE/HQC decapsulation dominating
// their key agreement, SPHINCS+ signing dwarfing everything else, and
// lattice schemes at classical-or-better cost.
var DefaultCostModel = &CostModel{
	KEM: map[string]kemCost{
		"x25519":       {50 * time.Microsecond, 100 * time.Microsecond, 50 * time.Microsecond},
		"p256":         {65 * time.Microsecond, 130 * time.Microsecond, 65 * time.Microsecond},
		"p384":         {350 * time.Microsecond, 700 * time.Microsecond, 350 * time.Microsecond},
		"p521":         {850 * time.Microsecond, 1700 * time.Microsecond, 850 * time.Microsecond},
		"kyber512":     {130 * time.Microsecond, 190 * time.Microsecond, 240 * time.Microsecond},
		"kyber768":     {180 * time.Microsecond, 260 * time.Microsecond, 330 * time.Microsecond},
		"kyber1024":    {250 * time.Microsecond, 380 * time.Microsecond, 460 * time.Microsecond},
		"kyber90s512":  {50 * time.Microsecond, 70 * time.Microsecond, 90 * time.Microsecond},
		"kyber90s768":  {80 * time.Microsecond, 110 * time.Microsecond, 140 * time.Microsecond},
		"kyber90s1024": {110 * time.Microsecond, 160 * time.Microsecond, 200 * time.Microsecond},
		"hqc128":       {250 * time.Microsecond, 600 * time.Microsecond, 900 * time.Microsecond},
		"hqc192":       {700 * time.Microsecond, 1700 * time.Microsecond, 2600 * time.Microsecond},
		"hqc256":       {1200 * time.Microsecond, 3000 * time.Microsecond, 4500 * time.Microsecond},
		"bikel1":       {25 * time.Millisecond, 250 * time.Microsecond, 14 * time.Millisecond},
		"bikel3":       {90 * time.Millisecond, 550 * time.Microsecond, 60 * time.Millisecond},
	},
	Sig: map[string]sigCost{
		"rsa:1024":       {80 * time.Millisecond, 350 * time.Microsecond, 30 * time.Microsecond},
		"rsa:2048":       {450 * time.Millisecond, 1200 * time.Microsecond, 60 * time.Microsecond},
		"rsa:3072":       {1500 * time.Millisecond, 3400 * time.Microsecond, 110 * time.Microsecond},
		"rsa:4096":       {4000 * time.Millisecond, 8000 * time.Microsecond, 170 * time.Microsecond},
		"ed25519":        {25 * time.Microsecond, 30 * time.Microsecond, 70 * time.Microsecond},
		"ecdsa-p256":     {70 * time.Microsecond, 80 * time.Microsecond, 230 * time.Microsecond},
		"ecdsa-p384":     {380 * time.Microsecond, 420 * time.Microsecond, 1100 * time.Microsecond},
		"ecdsa-p521":     {900 * time.Microsecond, 1000 * time.Microsecond, 2600 * time.Microsecond},
		"dilithium2":     {150 * time.Microsecond, 700 * time.Microsecond, 250 * time.Microsecond},
		"dilithium2_aes": {120 * time.Microsecond, 450 * time.Microsecond, 160 * time.Microsecond},
		"dilithium3":     {220 * time.Microsecond, 800 * time.Microsecond, 330 * time.Microsecond},
		"dilithium3_aes": {180 * time.Microsecond, 600 * time.Microsecond, 260 * time.Microsecond},
		"dilithium5":     {300 * time.Microsecond, 2100 * time.Microsecond, 500 * time.Microsecond},
		"dilithium5_aes": {260 * time.Microsecond, 1500 * time.Microsecond, 420 * time.Microsecond},
		"falcon512":      {9 * time.Millisecond, 180 * time.Microsecond, 60 * time.Microsecond},
		"falcon1024":     {27 * time.Millisecond, 420 * time.Microsecond, 120 * time.Microsecond},
		"sphincs128":     {2 * time.Millisecond, 17500 * time.Microsecond, 1000 * time.Microsecond},
		"sphincs128s":    {30 * time.Millisecond, 320 * time.Millisecond, 400 * time.Microsecond},
		"sphincs192":     {3 * time.Millisecond, 43 * time.Millisecond, 1600 * time.Microsecond},
		"sphincs192s":    {50 * time.Millisecond, 700 * time.Millisecond, 600 * time.Microsecond},
		"sphincs256":     {6 * time.Millisecond, 90 * time.Millisecond, 2000 * time.Microsecond},
		"sphincs256s":    {45 * time.Millisecond, 620 * time.Millisecond, 800 * time.Microsecond},
	},
}

// sigAlias maps the short component names hybrid suites use to the registry
// names of the underlying schemes.
var sigAlias = map[string]string{
	"p256":    "ecdsa-p256",
	"p384":    "ecdsa-p384",
	"p521":    "ecdsa-p521",
	"rsa3072": "rsa:3072",
}

// kemCostFor resolves a KEM name, composing hybrids by summing components.
func (c *CostModel) kemCostFor(name string) kemCost {
	if k, ok := c.KEM[name]; ok {
		return k
	}
	var sum kemCost
	for _, part := range strings.SplitN(name, "_", 2) {
		k := c.KEM[part]
		sum.Keygen += k.Keygen
		sum.Encaps += k.Encaps
		sum.Decaps += k.Decaps
	}
	return sum
}

// sigCostFor resolves a signature name, composing hybrids by summing
// components (after alias resolution: p256_falcon512 → ecdsa-p256 + falcon512).
func (c *CostModel) sigCostFor(name string) sigCost {
	if s, ok := c.Sig[name]; ok {
		return s
	}
	var sum sigCost
	for _, part := range strings.SplitN(name, "_", 2) {
		if alias, ok := sigAlias[part]; ok {
			part = alias
		}
		s := c.Sig[part]
		sum.Keygen += s.Keygen
		sum.Sign += s.Sign
		sum.Verify += s.Verify
	}
	return sum
}

// Cost returns the modeled duration of op (a tls13.Op* label) on alg.
// Unknown algorithms cost zero.
func (c *CostModel) Cost(op, alg string) time.Duration {
	switch op {
	case tls13.OpKEMKeygen:
		return c.kemCostFor(alg).Keygen
	case tls13.OpKEMEncaps:
		return c.kemCostFor(alg).Encaps
	case tls13.OpKEMDecaps:
		return c.kemCostFor(alg).Decaps
	case tls13.OpSigSign:
		return c.sigCostFor(alg).Sign
	case tls13.OpSigVerify:
		return c.sigCostFor(alg).Verify
	}
	return 0
}

// costEpoch anchors the meters' virtual clocks. Only differences of Now()
// values ever matter, so any fixed instant works; a fixed one keeps the
// clock independent of the host's wall clock.
var costEpoch = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// CostMeter implements tls13.Meter: a per-endpoint virtual compute clock
// that advances by the model's cost for every charged operation. Each
// simulated endpoint owns one; it is not safe for concurrent use.
type CostMeter struct {
	model   *CostModel
	elapsed time.Duration
}

// NewCostMeter returns a meter over the given model (nil = DefaultCostModel).
func NewCostMeter(model *CostModel) *CostMeter {
	if model == nil {
		model = DefaultCostModel
	}
	return &CostMeter{model: model}
}

// Charge advances the virtual clock by the modeled cost of op on alg.
func (m *CostMeter) Charge(op, alg string) {
	m.elapsed += m.model.Cost(op, alg)
}

// Now returns the virtual time.
func (m *CostMeter) Now() time.Time { return costEpoch.Add(m.elapsed) }

// stopwatch starts a span on the virtual clock; calling the result reads
// the compute charged since.
func (m *CostMeter) stopwatch() func() time.Duration {
	e0 := m.elapsed
	return func() time.Duration { return m.elapsed - e0 }
}
