package sig

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"pqtls/internal/drbg"
)

// The SA labels of Table 2b plus rsa3072_dilithium2 from Table 4b.
var paperNames = []string{
	"rsa:1024", "rsa:2048",
	"falcon512", "rsa:3072", "rsa:4096", "sphincs128", "p256_falcon512", "p256_sphincs128",
	"dilithium2", "dilithium2_aes", "p256_dilithium2", "rsa3072_dilithium2",
	"dilithium3", "dilithium3_aes", "sphincs192", "p384_dilithium3", "p384_sphincs192",
	"dilithium5", "dilithium5_aes", "falcon1024", "sphincs256",
	"p521_dilithium5", "p521_falcon1024", "p521_sphincs256",
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	for _, name := range paperNames {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing scheme %s", name)
		}
	}
	if _, err := ByName("md5"); err == nil {
		t.Error("unknown name did not error")
	}
}

func TestSignVerifyAll(t *testing.T) {
	t.Parallel()
	msg := []byte("TLS 1.3, server CertificateVerify")
	for _, name := range paperNames {
		name := name
		t.Run(strings.ReplaceAll(name, ":", ""), func(t *testing.T) {
			t.Parallel()
			if testing.Short() && strings.Contains(name, "sphincs") && name != "sphincs128" {
				t.Skip("slow in short mode")
			}
			s := MustByName(name)
			pub, priv, err := s.GenerateKey(nil)
			if err != nil {
				t.Fatal(err)
			}
			sigBytes, err := s.Sign(priv, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Verify(pub, msg, sigBytes) {
				t.Fatal("valid signature rejected")
			}
			if s.Verify(pub, []byte("other"), sigBytes) {
				t.Error("signature verified for wrong message")
			}
			bad := bytes.Clone(sigBytes)
			bad[len(bad)/2] ^= 1
			if s.Verify(pub, msg, bad) {
				t.Error("tampered signature accepted")
			}
		})
	}
}

// PQ signature sizes are fixed and drive the paper's data volumes.
func TestSignatureSizes(t *testing.T) {
	t.Parallel()
	want := map[string]int{
		"falcon512":  666,
		"falcon1024": 1280,
		"dilithium2": 2420,
		"dilithium3": 3293,
		"dilithium5": 4595,
		"sphincs128": 17088,
		"sphincs192": 35664,
		"sphincs256": 49856,
		"rsa:2048":   256,
		"rsa:4096":   512,
	}
	for name, size := range want {
		if got := MustByName(name).SignatureSize(); got != size {
			t.Errorf("%s: signature size %d, want %d", name, got, size)
		}
	}
}

func TestLevels(t *testing.T) {
	t.Parallel()
	checks := map[string]int{
		"rsa:1024":        0,
		"rsa:2048":        0, // the paper calls rsa:2048 "sub-level one"
		"rsa:3072":        1,
		"falcon512":       1,
		"dilithium2":      2,
		"dilithium3":      3,
		"sphincs256":      5,
		"p521_falcon1024": 5,
	}
	for name, level := range checks {
		if got := MustByName(name).Level(); got != level {
			t.Errorf("%s: level %d, want %d", name, got, level)
		}
	}
}

func TestHybridFlag(t *testing.T) {
	t.Parallel()
	for _, name := range paperNames {
		s := MustByName(name)
		wantHybrid := strings.Contains(name, "_") && !strings.HasSuffix(name, "_aes")
		if s.Hybrid() != wantHybrid {
			t.Errorf("%s: Hybrid() = %v, want %v", name, s.Hybrid(), wantHybrid)
		}
	}
}

// Composite verification must fail when either half fails.
func TestCompositeRequiresBoth(t *testing.T) {
	t.Parallel()
	s := MustByName("p256_dilithium2")
	pub, priv, err := s.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("composite")
	sigBytes, err := s.Sign(priv, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Verify(pub, msg, sigBytes) {
		t.Fatal("valid composite rejected")
	}
	// Corrupt the classical half (right after the length prefix).
	badClassic := bytes.Clone(sigBytes)
	badClassic[6] ^= 1
	if s.Verify(pub, msg, badClassic) {
		t.Error("composite accepted with broken classical half")
	}
	// Corrupt the PQ half (last byte).
	badPQ := bytes.Clone(sigBytes)
	badPQ[len(badPQ)-1] ^= 1
	if s.Verify(pub, msg, badPQ) {
		t.Error("composite accepted with broken PQ half")
	}
}

func TestMalformedComposite(t *testing.T) {
	t.Parallel()
	s := MustByName("p256_dilithium2")
	pub, _, _ := s.GenerateKey(nil)
	if s.Verify(pub, []byte("m"), []byte{0, 0}) {
		t.Error("truncated composite signature accepted")
	}
	if s.Verify([]byte{0}, []byte("m"), make([]byte, s.SignatureSize())) {
		t.Error("truncated composite public key accepted")
	}
}

// Classical signing must be derandomized (RFC 6979 style) and seeded keygen
// reproducible: ECDSA's variable-length DER signatures would otherwise
// jitter flight sizes between runs and break the byte-identical table gates,
// and a seeded RSA key that differs per process would change every capture.
func TestClassicalDeterminism(t *testing.T) {
	t.Parallel()
	for _, name := range []string{
		"ecdsa-p256", "ecdsa-p384", "ecdsa-p521", "rsa:1024", "rsa:2048",
		"p256_dilithium2", "rsa3072_dilithium2",
	} {
		s := MustByName(name)
		pub1, priv1, err := s.GenerateKey(drbg.Derive("seed"))
		if err != nil {
			t.Fatalf("%s: keygen: %v", name, err)
		}
		pub2, priv2, err := s.GenerateKey(drbg.Derive("seed"))
		if err != nil {
			t.Fatalf("%s: keygen: %v", name, err)
		}
		if !bytes.Equal(pub1, pub2) || !bytes.Equal(priv1, priv2) {
			t.Errorf("%s: seeded keygen not reproducible", name)
		}
		msg := []byte("determinism probe")
		sig1, err := s.Sign(priv1, msg)
		if err != nil {
			t.Fatalf("%s: sign: %v", name, err)
		}
		sig2, err := s.Sign(priv1, msg)
		if err != nil {
			t.Fatalf("%s: sign: %v", name, err)
		}
		if !bytes.Equal(sig1, sig2) {
			t.Errorf("%s: signing not deterministic", name)
		}
		if !s.Verify(pub1, msg, sig1) {
			t.Errorf("%s: deterministic signature does not verify", name)
		}
	}
}

// TestSeededRSAKeyPinned pins the rsa:2048 public key drawn from a fixed
// stream, so a change to deterministicRSAKey's candidate loop, or a Go
// release whose ProbablyPrime answers differently, shows up here as a diff
// and not as silently different credentials and captures.
func TestSeededRSAKeyPinned(t *testing.T) {
	t.Parallel()
	pub, _, err := MustByName("rsa:2048").GenerateKey(drbg.Derive("rsa-kat"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(pub)
	const want = "07eae5f17464bcb3c3b1f6908527df70063505dda7af8ed445af69e66c85ea99"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("rsa:2048 public key from drbg.Derive(\"rsa-kat\"): SHA-256 %s, want %s", got, want)
	}
}
