package mldsa

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pqtls/internal/drbg"
)

// Known-answer regression tests in the NIST KAT style: a deterministic DRBG
// seeds key generation, the (deterministic) signature over a fixed message
// is produced, and public key, private key and signature are pinned as
// SHA-256 digests. The vectors were generated from this implementation
// (round-3 Dilithium, which predates the final FIPS 204 tweaks, so official
// ML-DSA vectors do not apply); they lock the algorithm against unintended
// changes — any refactor that alters a single output byte fails here.

// katStream stands in for the NIST randombytes(): the module's DRBG keyed
// by the zero-padded seed.
func katStream(seed string) *drbg.Reader {
	var s [32]byte
	copy(s[:], seed)
	return drbg.New(s)
}

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// mldsaKAT pins one (seed, msg -> pk, sk, sig) transcript.
type mldsaKAT struct {
	seed string
	msg  string
	pk   string // SHA-256(pk)
	sk   string // SHA-256(sk)
	sig  string // SHA-256(sig)
}

var dilithium3KATs = []mldsaKAT{
	{"kat-mldsa65-vector-0", "the quick brown fox jumps over the lazy dog",
		"ed4db659a4dc54e902c07e02a3f68131bc878c5c6a00c7b04bd43c4a914d5a12",
		"e57a5d91599472fd5913828041091f77fc22d8452f300aab57fbd778d7f93230",
		"ac5bead531f668ea1a359be22691e1f7b00e979c9bd8c63552b88fa279aa6d7b"},
	{"kat-mldsa65-vector-1", "",
		"f37f472aaff468d3dd3607d51dfaaef8806ee68f64c361a85a0fcc4ca3307391",
		"eeb540b31a89234712b9bff9e345b0f2a2fb60f143c95ef545e2576bbcc1da26",
		"b87432d4b20289b67545d70289c2d5c5324467ef5d59d137de72037d461577ff"},
	{"kat-mldsa65-vector-2", "post-quantum tls 1.3 handshake transcript",
		"56a9d3d60eb8b054c6b8fed465c9ef6e80c1b504987daba6006b7f948a6346ab",
		"f00484859305d3f673d991ca72833179fb521af2c9d3a41dbc211f6e2bcd832a",
		"70cc239415108c4d5e0e6a4057af99a748f1a41b797b9e0d58832e4758f4fa22"},
	{"kat-mldsa65-vector-3", "0123456789abcdef0123456789abcdef",
		"86e8d355ee16a6dfe581f0a80ba66bf808720649662641139d5a585df35e6c17",
		"daec0133717e2aca3c0cb46447c39e425bdd6f7577673abe7bbdec0b2f0e1786",
		"116a7c0bab0b14d4e3f43a07a5fbbb064d7ffce06afe75679bb0ad870b864bc4"},
}

// TestDilithium3KAT runs the pinned ML-DSA-65-style known-answer transcript:
// seeded keygen, deterministic signing of the fixed message, digest pinning,
// and verification of the produced signature.
func TestDilithium3KAT(t *testing.T) {
	t.Parallel()
	for i, kat := range dilithium3KATs {
		rng := katStream(kat.seed)
		pk, sk, err := Dilithium3.GenerateKey(rng)
		if err != nil {
			t.Fatalf("vector %d: keygen: %v", i, err)
		}
		sig, err := Dilithium3.Sign(sk, []byte(kat.msg))
		if err != nil {
			t.Fatalf("vector %d: sign: %v", i, err)
		}
		if !Dilithium3.Verify(pk, []byte(kat.msg), sig) {
			t.Errorf("vector %d: signature does not verify", i)
		}
		if got := hexDigest(pk); got != kat.pk {
			t.Errorf("vector %d: pk digest = %s, want %s", i, got, kat.pk)
		}
		if got := hexDigest(sk); got != kat.sk {
			t.Errorf("vector %d: sk digest = %s, want %s", i, got, kat.sk)
		}
		if got := hexDigest(sig); got != kat.sig {
			t.Errorf("vector %d: sig digest = %s, want %s", i, got, kat.sig)
		}
		if len(pk) != Dilithium3.PublicKeySize() || len(sig) != Dilithium3.SignatureSize() {
			t.Errorf("vector %d: sizes pk=%d sig=%d", i, len(pk), len(sig))
		}
	}
}

// TestDilithium3KATForgery locks the rejection side: flipping any single
// byte region of a pinned signature or message must fail verification.
func TestDilithium3KATForgery(t *testing.T) {
	t.Parallel()
	kat := dilithium3KATs[0]
	rng := katStream(kat.seed)
	pk, sk, err := Dilithium3.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := Dilithium3.Sign(sk, []byte(kat.msg))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(sig) / 2, len(sig) - 1} {
		bad := append([]byte{}, sig...)
		bad[pos] ^= 1
		if Dilithium3.Verify(pk, []byte(kat.msg), bad) {
			t.Errorf("signature with byte %d flipped verified", pos)
		}
	}
	if Dilithium3.Verify(pk, []byte(kat.msg+"x"), sig) {
		t.Error("signature verified over a different message")
	}
}
