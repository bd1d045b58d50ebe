// Kernel-level benchmarks for the hot paths bench/pqperf's per-layer
// metrics do not cover: SPHINCS+ signing, GF(2)[x] multiplication, the
// key schedule, and timeline merging. Everything pqperf measures (Keccak,
// Kyber, Dilithium, the sans-IO handshakes, ticket seal/open, window
// recording) is measured there and only there; run `bash bench/run.sh`.
package pqtls_test

import (
	"io"
	"testing"
	"time"

	"pqtls/internal/crypto/gf2x"
	"pqtls/internal/crypto/sha3"
	"pqtls/internal/crypto/sphincs"
	"pqtls/internal/obs"
	"pqtls/internal/tls13"
)

// benchDRBG returns a deterministic byte stream so benchmark iterations are
// reproducible across runs and machines.
func benchDRBG(label string) io.Reader {
	x := sha3.NewShake128()
	x.Write([]byte("pqtls-kernel-bench/" + label))
	return x
}

func BenchmarkSphincs128Sign(b *testing.B) {
	p := sphincs.SPHINCS128f
	drbg := benchDRBG("sphincs128")
	pk, sk, err := p.GenerateKey(drbg)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("the performance of post-quantum tls 1.3")
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Sign(sk, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	sigBytes, err := p.Sign(sk, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !p.Verify(pk, msg, sigBytes) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkGF2xMulSparse(b *testing.B) {
	// HQC-128 shapes: r = 17669 bits, weight-75 sparse operand.
	const r, w = 17669, 75
	drbg := benchDRBG("gf2x")
	dense, err := gf2x.Random(drbg, r)
	if err != nil {
		b.Fatal(err)
	}
	sup, err := gf2x.RandomSupport(drbg, r, w)
	if err != nil {
		b.Fatal(err)
	}
	dst := gf2x.New(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dense.MulSparse(dst, sup)
	}
}

// BenchmarkKeySchedule runs one full server-side HKDF derivation chain
// (early → handshake → master secrets, both traffic pairs, finished MACs)
// through the scratch-buffer key schedule. It must report 0 allocs/op:
// this chain runs once per accepted handshake.
func BenchmarkKeySchedule(b *testing.B) {
	ks := tls13.NewKeyScheduleKernel()
	ss := make([]byte, 32)
	transcript := make([]byte, 512)
	benchDRBG("keyschedule").Read(ss)
	benchDRBG("keyschedule-transcript").Read(transcript)
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink ^= ks.Run(ss, transcript)
	}
	_ = sink
}

// BenchmarkWindowMerge measures the coordinator's per-progress-frame fold
// of one worker timeline snapshot into the fleet rollup (32 active
// windows). Cloning allocates by design; this pins ns/op.
func BenchmarkWindowMerge(b *testing.B) {
	src := obs.NewTimeline(100 * time.Millisecond)
	for i := 0; i < 32; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		src.RecordStart(at)
		src.RecordComplete(at+time.Millisecond, time.Duration(i+1)*time.Millisecond, i%2 == 0, false)
	}
	dst := obs.NewTimeline(100 * time.Millisecond)
	if err := dst.Merge(src); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}
