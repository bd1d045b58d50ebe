package harness

import (
	"testing"
	"time"

	"pqtls/internal/netsim"
	"pqtls/internal/perf"
	"pqtls/internal/tls13"
)

func TestRunHandshakeBaseline(t *testing.T) {
	t.Parallel()
	res, err := RunHandshake(RunOptions{
		KEM: "x25519", Sig: "rsa:2048", Link: ScenarioTestbed,
		Buffer: tls13.BufferImmediate, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.PartA <= 0 || res.Phases.PartB <= 0 {
		t.Errorf("phases: A=%v B=%v, want positive", res.Phases.PartA, res.Phases.PartB)
	}
	if res.Phases.Total() > 100*time.Millisecond {
		t.Errorf("baseline handshake took %v, want a few ms", res.Phases.Total())
	}
	if res.ClientBytes < 400 || res.ClientBytes > 2000 {
		t.Errorf("client bytes = %d, want x25519-scale (~700)", res.ClientBytes)
	}
	if res.ServerBytes < 900 || res.ServerBytes > 4000 {
		t.Errorf("server bytes = %d, want rsa:2048-scale (~1500)", res.ServerBytes)
	}
	if res.Cycle <= res.Phases.Total() {
		t.Error("cycle must exceed the tap-observed handshake duration")
	}
}

// PQ suites must move more data, in the right direction.
func TestDataVolumeShape(t *testing.T) {
	t.Parallel()
	base, err := RunHandshake(RunOptions{KEM: "x25519", Sig: "rsa:2048", Link: ScenarioTestbed, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hqc, err := RunHandshake(RunOptions{KEM: "hqc128", Sig: "rsa:2048", Link: ScenarioTestbed, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// HQC-128: client sends the 2249B public key, server the 4481B ct.
	if hqc.ClientBytes < base.ClientBytes+2000 {
		t.Errorf("hqc128 client bytes %d vs base %d: want ~+2.2kB", hqc.ClientBytes, base.ClientBytes)
	}
	if hqc.ServerBytes < base.ServerBytes+4000 {
		t.Errorf("hqc128 server bytes %d vs base %d: want ~+4.5kB", hqc.ServerBytes, base.ServerBytes)
	}
	dil, err := RunHandshake(RunOptions{KEM: "x25519", Sig: "dilithium2", Link: ScenarioTestbed, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Dilithium2: cert (pk 1312 + sig 2420) + CV sig 2420 ≈ +5.5kB server.
	if dil.ServerBytes < base.ServerBytes+4500 {
		t.Errorf("dilithium2 server bytes %d vs base %d: want ~+5.5kB", dil.ServerBytes, base.ServerBytes)
	}
}

func TestCampaignAggregation(t *testing.T) {
	t.Parallel()
	r, err := RunCampaign(CampaignOptions{
		KEM: "kyber512", Sig: "rsa:2048", Link: ScenarioTestbed,
		Buffer: tls13.BufferImmediate, Samples: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 5 || r.Handshakes60s <= 0 {
		t.Errorf("samples=%d handshakes60s=%d", r.Samples, r.Handshakes60s)
	}
	if r.TotalMedian < r.PartAMedian {
		t.Error("total median below part A")
	}
}

// White-box: the profiler reads each endpoint's own clock, the meter under
// modeled timing, so libcrypto spans cover exactly the modeled CPU (every
// charge sits inside a libcrypto span), and libcrypto dominates the server
// for a signing-heavy suite.
func TestWhiteBoxProfile(t *testing.T) {
	t.Parallel()
	const samples = 3
	r, err := RunCampaign(CampaignOptions{
		KEM: "kyber512", Sig: "dilithium2", Link: ScenarioTestbed,
		Buffer: tls13.BufferImmediate, Samples: samples, Seed: 1, Profile: true,
		Timing: TimingModel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		prof perf.Snapshot
		cpu  time.Duration // per-sample mean, truncated
	}{{"server", r.ServerProfile, r.ServerCPU}, {"client", r.ClientProfile, r.ClientCPU}} {
		got, want := side.prof.Spans[perf.LibCrypto], samples*side.cpu
		if got < want || got >= want+samples {
			t.Errorf("%s libcrypto spans %v, want %d × modeled CPU %v = %v", side.name, got, samples, side.cpu, want)
		}
	}
	if dist := r.ServerProfile.Distribution(); len(dist) == 0 || dist[0].Lib != perf.LibCrypto {
		t.Errorf("server distribution %v, want libcrypto dominant", dist)
	}
}

// The high-delay scenario must cost at least one full RTT; large flights
// must cost several (the Section 5.4 CWND effect).
func TestHighDelayScenario(t *testing.T) {
	t.Parallel()
	small, err := RunHandshake(RunOptions{
		KEM: "x25519", Sig: "rsa:2048", Link: netsim.ScenarioHighDelay,
		Buffer: tls13.BufferImmediate, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.Phases.Total() < time.Second || small.Phases.Total() > 1200*time.Millisecond {
		t.Errorf("1s-RTT handshake = %v, want ~1s", small.Phases.Total())
	}
	big, err := RunHandshake(RunOptions{
		KEM: "x25519", Sig: "sphincs256", Link: netsim.ScenarioHighDelay,
		Buffer: tls13.BufferImmediate, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// sphincs256's ~105kB flight needs 4 CWND rounds: total ≥ 3s.
	if big.Phases.Total() < 2500*time.Millisecond {
		t.Errorf("sphincs256 1s-RTT handshake = %v, want multiple RTTs", big.Phases.Total())
	}
}

func TestRanking(t *testing.T) {
	t.Parallel()
	results := []*CampaignResult{
		{KEM: "fast", TotalMedian: time.Millisecond},
		{KEM: "mid", TotalMedian: 5 * time.Millisecond},
		{KEM: "slow", TotalMedian: 100 * time.Millisecond},
	}
	ranks := RankFromResults(results, func(r *CampaignResult) string { return r.KEM })
	if ranks[0].Name != "fast" || ranks[0].Score != 0 {
		t.Errorf("fastest rank = %+v, want fast/0", ranks[0])
	}
	if ranks[2].Name != "slow" || ranks[2].Score != 10 {
		t.Errorf("slowest rank = %+v, want slow/10", ranks[2])
	}
}

func TestAttackSurface(t *testing.T) {
	t.Parallel()
	res := []*CampaignResult{{
		KEM: "x25519", Sig: "sphincs128",
		ClientBytes: 1000, ServerBytes: 36000,
		ClientCPU: time.Millisecond, ServerCPU: 6 * time.Millisecond,
	}}
	a := AttackSurfaceFromResults(res)
	if a[0].Amplification != 36 {
		t.Errorf("amplification = %v, want 36", a[0].Amplification)
	}
	if a[0].CPUAsymmetry != 6 {
		t.Errorf("asymmetry = %v, want 6", a[0].CPUAsymmetry)
	}
}
