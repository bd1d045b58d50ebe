package mlkem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pqtls/internal/drbg"
)

// Known-answer regression tests in the NIST KAT style: a deterministic DRBG
// seeds key generation and encapsulation, and the resulting public key,
// ciphertext and shared secret are pinned as SHA-256 digests. The vectors
// were generated from this implementation (round-3 Kyber, which predates the
// final FIPS 203 tweaks, so official ML-KEM vectors do not apply); they lock
// the algorithm against unintended changes — any refactor that alters a
// single output byte fails the digest comparison.

// katStream stands in for the NIST randombytes(): the module's DRBG keyed
// by the zero-padded seed.
func katStream(seed string) *drbg.Reader {
	var s [32]byte
	copy(s[:], seed)
	return drbg.New(s)
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mlkemKAT pins one (seed -> pk, ct, ss) transcript per DRBG seed.
type mlkemKAT struct {
	seed string
	pk   string // SHA-256(pk)
	ct   string // SHA-256(ct)
	ss   string // SHA-256(ss)
}

var kyber768KATs = []mlkemKAT{
	{"kat-mlkem768-vector-0",
		"33da7eeb0e10ba178c259e7fba379f67fe4954b256ab0fed0212cbf697929f29",
		"09a38f14e44c27376df76d63f0c573347c0385fe8067aae098673bf7140fb4f8",
		"2b35358f559810b1c61aa05f70a64f26078f55a9c415cfb30e2d73a904e36a10"},
	{"kat-mlkem768-vector-1",
		"fd5f49669c3a22ae0a922efe16e4773f88913d011e16e660dbe157b19bc2942d",
		"822aef657335617bc5b9d57fb867449dc5686b50f1e12d24e0a78a443d64ac8e",
		"3a15b8a87bf40f78d77d8535a06e79088f876ef82bf71a26b35be45fed6be638"},
	{"kat-mlkem768-vector-2",
		"053be8916595cdc8f63f84a66d3db17708ca2aa0f9a473dba24770e4b7b5a149",
		"0c8125eb154c1adf4af4cce7fb912e38624b2cb090827589331b2745bed87636",
		"b54fd35c597b82f4697f4da419a5f015c1eff5526325628bd521c4faf7792481"},
	{"kat-mlkem768-vector-3",
		"74afdefc953945d6797ca6da64461216620ae2fcb9136a04b6c38029c2aa4047",
		"8b8db52d3551cb41ecdc08590d39f85955bd4ccf7f6be18a9a43fc7a2a2b0e91",
		"7145f3621d1500cf4b14d46f1df6a090d7148b65d7540281a2cfefe63d0f6ef8"},
}

// TestKyber768KAT runs the pinned ML-KEM-768-style known-answer transcript:
// keygen and encaps draw from the seeded DRBG, decaps must reproduce the
// encapsulated secret, and all outputs must match their pinned digests.
func TestKyber768KAT(t *testing.T) {
	t.Parallel()
	for i, kat := range kyber768KATs {
		rng := katStream(kat.seed)
		pk, sk, err := Kyber768.GenerateKey(rng)
		if err != nil {
			t.Fatalf("vector %d: keygen: %v", i, err)
		}
		ct, ss, err := Kyber768.Encapsulate(rng, pk)
		if err != nil {
			t.Fatalf("vector %d: encaps: %v", i, err)
		}
		ss2, err := Kyber768.Decapsulate(sk, ct)
		if err != nil {
			t.Fatalf("vector %d: decaps: %v", i, err)
		}
		if !bytes.Equal(ss, ss2) {
			t.Errorf("vector %d: decaps secret differs from encaps secret", i)
		}
		if got := digest(pk); got != kat.pk {
			t.Errorf("vector %d: pk digest = %s, want %s", i, got, kat.pk)
		}
		if got := digest(ct); got != kat.ct {
			t.Errorf("vector %d: ct digest = %s, want %s", i, got, kat.ct)
		}
		if got := digest(ss); got != kat.ss {
			t.Errorf("vector %d: ss digest = %s, want %s", i, got, kat.ss)
		}
		if len(pk) != Kyber768.PublicKeySize() || len(ct) != Kyber768.CiphertextSize() {
			t.Errorf("vector %d: sizes pk=%d ct=%d", i, len(pk), len(ct))
		}
	}
}

// TestKyber768KATTamper locks the implicit-rejection path: decapsulating a
// corrupted ciphertext must succeed but yield a different (pseudorandom)
// secret, never an error or the true secret.
func TestKyber768KATTamper(t *testing.T) {
	t.Parallel()
	rng := katStream(kyber768KATs[0].seed)
	pk, sk, err := Kyber768.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, ss, err := Kyber768.Encapsulate(rng, pk)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, ct...)
	bad[0] ^= 1
	ssBad, err := Kyber768.Decapsulate(sk, bad)
	if err != nil {
		t.Fatalf("implicit rejection must not error: %v", err)
	}
	if bytes.Equal(ss, ssBad) {
		t.Error("tampered ciphertext decapsulated to the true secret")
	}
}
