package harness

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"pqtls/internal/netsim"
	"pqtls/internal/tls13"
)

// The tentpole guarantee of the parallel campaign engine: fanning samples
// across workers must not change a single output byte. Modeled timing makes
// every sample a pure function of (suite, link, seed), so the aggregated
// CSV must be identical for any worker count.

// determinismGrid deliberately includes falcon512 (lazy NTT tables) and
// hqc128 (lazy code tables) so the parallel runs double as a race test for
// the lazily initialized cryptographic state. The last two cells add an odd
// sample count (the median's other branch) and a hybrid certificate on a
// lossy link, whose samples differ, so a fold that dropped or repeated a
// sample would show in the medians. ECDSA signatures are excluded: their
// DER encoding varies by a byte with the signing nonce, so they are not
// byte-stable across *any* two runs, sequential or parallel.
func determinismGrid(workers int) []CampaignOptions {
	cell := func(kem, sig string, link netsim.LinkConfig, samples int, seed int64) CampaignOptions {
		return CampaignOptions{
			KEM: kem, Sig: sig, Link: link, Buffer: tls13.BufferImmediate,
			Samples: samples, Seed: seed, Workers: workers,
		}
	}
	return []CampaignOptions{
		cell("x25519", "rsa:2048", ScenarioTestbed, 6, 42),
		cell("kyber512", "dilithium2", ScenarioTestbed, 6, 42),
		cell("hqc128", "falcon512", ScenarioTestbed, 6, 42),
		cell("p256_kyber512", "rsa3072_dilithium2", ScenarioTestbed, 6, 42),
		cell("x25519", "rsa:2048", ScenarioTestbed, 7, 42),
		cell("p256_kyber512", "rsa3072_dilithium2", netsim.Scenario5G, 5, 7),
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	grid := func(workers int) ([]*CampaignResult, []byte) {
		rows, err := runCampaignGrid(determinismGrid(workers), workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteLatenciesCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return rows, buf.Bytes()
	}
	seqRows, seqCSV := grid(1)
	for _, workers := range []int{2, 4, 8} {
		rows, csv := grid(workers)
		if !bytes.Equal(seqCSV, csv) {
			t.Errorf("workers=%d CSV differs from sequential run:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, seqCSV, workers, csv)
		} else if !reflect.DeepEqual(seqRows, rows) {
			t.Errorf("workers=%d rows differ from sequential run (CPU or cycle columns):\n%+v\n%+v",
				workers, seqRows, rows)
		}
	}
}

// The HRR comparison uses its own per-sample fan-out for the fallback arm;
// it must be worker-count invariant too.
func TestHRRComparisonDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	kems := []string{"kyber512"}
	seq, err := RunHRRComparison(kems, ScenarioTestbed, SweepConfig{Samples: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHRRComparison(kems, ScenarioTestbed, SweepConfig{Samples: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("HRR results differ: sequential %+v, parallel %+v", seq, par)
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	t.Parallel()
	errAt := func(bad map[int]error) error {
		return forEach(100, 8, func(i int) error { return bad[i] })
	}
	e7, e40 := errors.New("fail at 7"), errors.New("fail at 40")
	if err := errAt(map[int]error{40: e40, 7: e7}); err != e7 {
		t.Errorf("got %v, want the lowest-index error %v", err, e7)
	}
	if err := errAt(nil); err != nil {
		t.Errorf("no failures, got %v", err)
	}
	if err := forEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0 ran the body: %v", err)
	}
}

func TestForEachCoversAllIndexes(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 64} {
		seen := make([]bool, 37)
		if err := forEach(len(seen), workers, func(i int) error {
			seen[i] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
}

// Sanity-check the example in the package docs: default workers is a
// positive CPU-derived count.
func TestDefaultWorkers(t *testing.T) {
	t.Parallel()
	if DefaultWorkers() < 1 {
		t.Errorf("DefaultWorkers() = %d", DefaultWorkers())
	}
}

// Guard the modeled-cost tables: every registered suite used by the sweeps
// must resolve to a non-zero cost so no algorithm silently runs "for free"
// on the virtual clock.
func TestCostModelCoversSweepSuites(t *testing.T) {
	t.Parallel()
	for _, k := range Table2aKEMs {
		c := DefaultCostModel.kemCostFor(k)
		if c.Keygen <= 0 || c.Encaps <= 0 || c.Decaps <= 0 {
			t.Errorf("KEM %s has incomplete cost %+v", k, c)
		}
	}
	for _, s := range append(append([]string{}, Table2bSigs...), Table4bSigs...) {
		c := DefaultCostModel.sigCostFor(s)
		if c.Sign <= 0 || c.Verify <= 0 {
			t.Errorf("sig %s has incomplete cost %+v", s, c)
		}
	}
}
