package mldsa

import (
	"bytes"
	"sync"
	"testing"

	"pqtls/internal/crypto/sha3"
)

// TestPrecomputedContextsMatchOneShot pins that SigningKey.Sign and
// VerifyKey.Verify are byte-identical to Params.Sign / Params.Verify for
// every parameter set (signing is deterministic, so equality is exact).
func TestPrecomputedContextsMatchOneShot(t *testing.T) {
	sets := []*Params{Dilithium2, Dilithium3, Dilithium5, Dilithium2AES, Dilithium3AES, Dilithium5AES}
	for _, p := range sets {
		rng := sha3.NewShake256()
		rng.Write([]byte("precompute-" + p.Name))
		pk, sk, err := p.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		signer, err := p.NewSigningKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		verifier, err := p.NewVerifyKey(pk)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			msg := make([]byte, 16+trial*37)
			rng.Read(msg)
			want, err := p.Sign(sk, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := signer.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s trial %d: SigningKey.Sign differs from Params.Sign", p.Name, trial)
			}
			if !verifier.Verify(msg, got) {
				t.Fatalf("%s trial %d: VerifyKey rejects a valid signature", p.Name, trial)
			}
			if !p.Verify(pk, msg, got) {
				t.Fatalf("%s trial %d: Params.Verify rejects a valid signature", p.Name, trial)
			}
			// Corrupt one byte: both verifiers must agree on rejection.
			bad := append([]byte(nil), got...)
			bad[trial%len(bad)] ^= 0x40
			if verifier.Verify(msg, bad) != p.Verify(pk, msg, bad) {
				t.Fatalf("%s trial %d: verifiers disagree on corrupted signature", p.Name, trial)
			}
			if verifier.Verify(msg[:len(msg)-1], got) {
				t.Fatalf("%s trial %d: VerifyKey accepts wrong message", p.Name, trial)
			}
		}
	}
}

// TestPrecomputedContextsConcurrent exercises one shared SigningKey and
// VerifyKey from many goroutines (run under -race in `make race`).
func TestPrecomputedContextsConcurrent(t *testing.T) {
	p := Dilithium3
	rng := sha3.NewShake256()
	rng.Write([]byte("precompute-concurrent"))
	pk, sk, err := p.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := p.NewSigningKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := p.NewVerifyKey(pk)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := []byte{byte(g), byte(g >> 8), 0xAB}
			sig, err := signer.Sign(msg)
			if err != nil {
				errc <- err
				return
			}
			if !verifier.Verify(msg, sig) {
				errc <- ErrBadKey
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestVerifyCachedZeroAlloc pins the pooled-scratch contract of the cached
// verifier (the client-side per-handshake cost).
func TestVerifyCachedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis")
	}
	rng := sha3.NewShake256()
	rng.Write([]byte("verify-zero-alloc"))
	pk, sk, err := Dilithium3.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := Dilithium3.Sign(sk, []byte("hot path"))
	if err != nil {
		t.Fatal(err)
	}
	vk, err := Dilithium3.NewVerifyKey(pk)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if !vk.Verify([]byte("hot path"), sig) {
			t.Fatal("valid signature rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("cached Verify allocates %v times per op, want 0", allocs)
	}
}

func BenchmarkDilithium3SignCached(b *testing.B) {
	rng := sha3.NewShake256()
	rng.Write([]byte("bench-sign-cached"))
	_, sk, err := Dilithium3.GenerateKey(rng)
	if err != nil {
		b.Fatal(err)
	}
	signer, err := Dilithium3.NewSigningKey(sk)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 130)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDilithium3VerifyCached(b *testing.B) {
	rng := sha3.NewShake256()
	rng.Write([]byte("bench-verify-cached"))
	pk, sk, err := Dilithium3.GenerateKey(rng)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 130)
	sig, err := Dilithium3.Sign(sk, msg)
	if err != nil {
		b.Fatal(err)
	}
	verifier, err := Dilithium3.NewVerifyKey(pk)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verifier.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}
