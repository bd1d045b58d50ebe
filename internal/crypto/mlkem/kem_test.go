package mlkem

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"pqtls/internal/crypto/sha3"
)

var allParams = []*Params{Kyber512, Kyber768, Kyber1024, Kyber90s512, Kyber90s768, Kyber90s1024}

func TestNTTRoundtrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		var p, orig poly
		s := seed
		for i := range p {
			s = s*6364136223846793005 + 1442695040888963407
			p[i] = int16(uint64(s) >> 33 % Q)
		}
		orig = p
		p.ntt()
		p.invNTT()
		return p == orig
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// NTT multiplication must agree with schoolbook multiplication in
// Z_q[X]/(X^256+1).
func TestNTTMulMatchesSchoolbook(t *testing.T) {
	t.Parallel()
	var a, b poly
	for i := range a {
		a[i] = int16((i*31 + 7) % Q)
		b[i] = int16((i*17 + 3) % Q)
	}
	var want poly
	for i := 0; i < N; i++ {
		for j := 0; j < N; j++ {
			prod := int64(a[i]) * int64(b[j]) % Q
			k := i + j
			if k >= N {
				k -= N
				prod = Q - prod
			}
			want[k] = int16((int64(want[k]) + prod) % Q)
		}
	}
	na, nb := a, b
	na.ntt()
	nb.ntt()
	var got poly
	basemulAcc(&got, &na, &nb)
	got.invNTT()
	if got != want {
		t.Error("NTT product differs from schoolbook product")
	}
}

func TestSizes(t *testing.T) {
	t.Parallel()
	want := []struct {
		p          *Params
		pk, sk, ct int
	}{
		{Kyber512, 800, 1632, 768},
		{Kyber768, 1184, 2400, 1088},
		{Kyber1024, 1568, 3168, 1568},
		{Kyber90s512, 800, 1632, 768},
	}
	for _, w := range want {
		if got := w.p.PublicKeySize(); got != w.pk {
			t.Errorf("%s: pk size %d, want %d", w.p.Name, got, w.pk)
		}
		if got := w.p.PrivateKeySize(); got != w.sk {
			t.Errorf("%s: sk size %d, want %d", w.p.Name, got, w.sk)
		}
		if got := w.p.CiphertextSize(); got != w.ct {
			t.Errorf("%s: ct size %d, want %d", w.p.Name, got, w.ct)
		}
	}
}

func TestRoundtripAll(t *testing.T) {
	t.Parallel()
	for _, p := range allParams {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			pk, sk, err := p.GenerateKey(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(pk) != p.PublicKeySize() || len(sk) != p.PrivateKeySize() {
				t.Fatalf("key sizes: pk=%d sk=%d", len(pk), len(sk))
			}
			ct, ss1, err := p.Encapsulate(nil, pk)
			if err != nil {
				t.Fatal(err)
			}
			if len(ct) != p.CiphertextSize() {
				t.Fatalf("ct size %d, want %d", len(ct), p.CiphertextSize())
			}
			ss2, err := p.Decapsulate(sk, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ss1, ss2) {
				t.Error("shared secrets differ")
			}
		})
	}
}

// Implicit rejection: a tampered ciphertext must decapsulate to a *different*
// secret, deterministically, without error.
func TestImplicitRejection(t *testing.T) {
	t.Parallel()
	p := Kyber512
	pk, sk, err := p.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, ss1, err := p.Encapsulate(nil, pk)
	if err != nil {
		t.Fatal(err)
	}
	ct[0] ^= 1
	ssA, err := p.Decapsulate(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ss1, ssA) {
		t.Error("tampered ciphertext produced the honest shared secret")
	}
	ssB, err := p.Decapsulate(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ssA, ssB) {
		t.Error("implicit rejection is not deterministic")
	}
}

func TestDeterministicFromSeed(t *testing.T) {
	t.Parallel()
	var seed [64]byte
	for i := range seed {
		seed[i] = byte(i)
	}
	pk1, sk1 := Kyber768.deriveKey(seed)
	pk2, sk2 := Kyber768.deriveKey(seed)
	if !bytes.Equal(pk1, pk2) || !bytes.Equal(sk1, sk2) {
		t.Error("deriveKey is not deterministic")
	}
}

func TestWrongSizesRejected(t *testing.T) {
	t.Parallel()
	p := Kyber512
	if _, _, err := p.Encapsulate(nil, make([]byte, 10)); err == nil {
		t.Error("short public key accepted")
	}
	pk, sk, _ := p.GenerateKey(nil)
	_ = pk
	if _, err := p.Decapsulate(sk, make([]byte, 10)); err == nil {
		t.Error("short ciphertext accepted")
	}
	if _, err := p.Decapsulate(sk[:100], make([]byte, p.CiphertextSize())); err == nil {
		t.Error("short private key accepted")
	}
}

// Property: compress/decompress error is bounded by q/2^(d+1) (rounding).
func TestQuickCompressBound(t *testing.T) {
	t.Parallel()
	f := func(x uint16, dRaw uint8) bool {
		d := uint(dRaw%11) + 1
		v := int16(x % Q)
		var p poly
		p[0] = v
		p.compress(d)
		p.decompress(d)
		diff := int(p[0]) - int(v)
		if diff > Q/2 {
			diff -= Q
		}
		if diff < -Q/2 {
			diff += Q
		}
		if diff < 0 {
			diff = -diff
		}
		return diff <= (Q+(1<<(d+1))-1)/(1<<(d+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: pack/unpack is the identity on d-bit coefficients.
func TestQuickPackRoundtrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64, dRaw uint8) bool {
		d := uint(dRaw%12) + 1
		var p poly
		s := seed
		for i := range p {
			s = s*2862933555777941757 + 3037000493
			p[i] = int16(uint64(s) >> 40 & (1<<d - 1))
		}
		buf := make([]byte, 32*d)
		p.pack(d, buf)
		var q poly
		q.unpack(d, buf)
		return p == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every fresh encapsulation roundtrips (catches rare decryption
// failures that would break TLS handshakes).
func TestQuickEncapsRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	t.Parallel()
	pk, sk, err := Kyber512.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ct, ss1, err := Kyber512.Encapsulate(rand.Reader, pk)
		if err != nil {
			t.Fatal(err)
		}
		ss2, err := Kyber512.Decapsulate(sk, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ss1, ss2) {
			t.Fatalf("roundtrip %d failed", i)
		}
	}
}

// Sanity-check the zeta tables: 17 must be a primitive 256th root of unity
// and zetasMont must be the Montgomery-scaled copy of zetas.
func TestZetaTables(t *testing.T) {
	t.Parallel()
	pow := new(big.Int).Exp(big.NewInt(17), big.NewInt(128), big.NewInt(Q))
	if pow.Int64() != Q-1 {
		t.Fatalf("17^128 mod q = %v, want q-1", pow)
	}
	for i := range zetas {
		if freduce(zetasMont[i]) != fqmul(zetas[i], montR) {
			t.Fatalf("zetasMont[%d] != zetas[%d]*2^16 mod q", i, i)
		}
		// montReduce must undo the radix: montReduce(x*zetasMont) == x*zetas.
		if freduce(montReduce(int32(zetasMont[i])*7)) != fqmul(zetas[i], 7) {
			t.Fatalf("montReduce round-trip failed for zeta %d", i)
		}
	}
}

func benchKEM(b *testing.B, p *Params) {
	pk, sk, err := p.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("keygen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.GenerateKey(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encaps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Encapsulate(nil, pk); err != nil {
				b.Fatal(err)
			}
		}
	})
	ct, _, _ := p.Encapsulate(nil, pk)
	b.Run("decaps", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Decapsulate(sk, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKyber512(b *testing.B)  { benchKEM(b, Kyber512) }
func BenchmarkKyber768(b *testing.B)  { benchKEM(b, Kyber768) }
func BenchmarkKyber1024(b *testing.B) { benchKEM(b, Kyber1024) }

// Every region of the ciphertext (u blocks and v) participates in the FO
// check: flipping a byte anywhere must change the decapsulated secret.
func TestTamperEveryRegion(t *testing.T) {
	t.Parallel()
	p := Kyber512
	pk, sk, err := p.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, ss, err := p.Encapsulate(nil, pk)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, 100, 320, 500, 640, 700, len(ct) - 1} {
		bad := bytes.Clone(ct)
		bad[pos] ^= 0x10
		got, err := p.Decapsulate(sk, bad)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, ss) {
			t.Errorf("tamper at byte %d produced the honest secret", pos)
		}
	}
}

// 90s and SHAKE variants with identical seeds must produce *different*
// keys (different symmetric primitives), guarding against accidental
// primitive sharing.
func TestVariantsDiffer(t *testing.T) {
	t.Parallel()
	var seed [64]byte
	for i := range seed {
		seed[i] = byte(i * 3)
	}
	pkA, _ := Kyber512.deriveKey(seed)
	pkB, _ := Kyber90s512.deriveKey(seed)
	if bytes.Equal(pkA, pkB) {
		t.Error("kyber512 and kyber90s512 derived identical keys from one seed")
	}
}

// The NTT round-trip is the innermost arithmetic loop of every lattice
// operation and must stay allocation-free.
func TestNTTZeroAlloc(t *testing.T) {
	var p poly
	for i := range p {
		p[i] = int16(i % Q)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.ntt()
		p.invNTT()
	}); n != 0 {
		t.Errorf("NTT round-trip allocates %v times, want 0", n)
	}
}

// TestEncapsulateIntoZeroAlloc pins the zero-alloc contract of the
// SHAKE-set encapsulation and decapsulation hot paths (the per-connection
// server and client costs).
func TestEncapsulateIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis")
	}
	rng := sha3.NewShake256()
	rng.Write([]byte("encap-zero-alloc"))
	pk, sk, err := Kyber768.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, Kyber768.CiphertextSize())
	ss := make([]byte, Kyber768.SharedSecretSize())
	allocs := testing.AllocsPerRun(100, func() {
		if err := Kyber768.EncapsulateInto(rng, pk, ct, ss); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncapsulateInto allocates %v times per op, want 0", allocs)
	}
	ss2 := make([]byte, Kyber768.SharedSecretSize())
	allocs = testing.AllocsPerRun(100, func() {
		if err := Kyber768.DecapsulateInto(sk, ct, ss2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecapsulateInto allocates %v times per op, want 0", allocs)
	}
}
