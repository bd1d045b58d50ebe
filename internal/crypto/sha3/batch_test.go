package sha3

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// TestMultiXOFMatchesSingle drives the batched sponge against the one-shot
// streams over thousands of random shapes: batch sizes 1..12, input lengths
// from empty through several blocks (crossing both SHAKE rates), squeezed
// in interleaved chunks. Every stream must be byte-identical to a solo
// sponge over the same input.
func TestMultiXOFMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6a09e667))
	variants := []struct {
		name string
		mk   func([][]byte) *MultiXOF
		ref  func() XOF
	}{
		{"shake128", NewMultiShake128, NewShake128},
		{"shake256", func(in [][]byte) *MultiXOF { return newMulti(136, 0x1F, in) }, NewShake256},
	}
	for trial := 0; trial < 2500; trial++ {
		v := variants[trial%len(variants)]
		n := 1 + rng.Intn(12)
		inputs := make([][]byte, n)
		want := make([][]byte, n)
		outLen := 1 + rng.Intn(400)
		for i := range inputs {
			// Cover empty, sub-block, exact-block, and multi-block inputs.
			l := rng.Intn(3 * 170)
			if rng.Intn(8) == 0 {
				l = []int{0, 136, 168, 136 * 2, 168 * 2}[rng.Intn(5)]
			}
			inputs[i] = make([]byte, l)
			rng.Read(inputs[i])
			x := v.ref()
			x.Write(inputs[i])
			want[i] = make([]byte, outLen)
			x.Read(want[i])
			PutXOF(x)
		}
		m := v.mk(inputs)
		got := make([][]byte, n)
		for i := range got {
			got[i] = make([]byte, outLen)
		}
		// Squeeze the streams in interleaved chunks to exercise per-stream
		// refill positions.
		for off := 0; off < outLen; {
			c := 1 + rng.Intn(64)
			if off+c > outLen {
				c = outLen - off
			}
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(m.Stream(i), got[i][off:off+c]); err != nil {
					t.Fatal(err)
				}
			}
			off += c
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d %s: stream %d/%d (in %dB, out %dB) diverges from single sponge",
					trial, v.name, i, n, len(inputs[i]), outLen)
			}
		}
		PutMultiXOF(m)
	}
}
