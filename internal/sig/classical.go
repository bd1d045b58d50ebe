package sig

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/asn1"
	"fmt"
	"io"
	"math/big"

	"pqtls/internal/drbg"
)

// rsaScheme is RSA-PSS with SHA-256, the RSA mode of TLS 1.3.
type rsaScheme struct {
	name  string
	bits  int
	level int
}

func (r *rsaScheme) Name() string { return r.name }
func (r *rsaScheme) Level() int   { return r.level }
func (r *rsaScheme) Hybrid() bool { return false }

// PublicKeySize is the DER-encoded PKIX size (modulus + exponent + ASN.1).
func (r *rsaScheme) PublicKeySize() int { return r.bits/8 + 38 }

// SignatureSize equals the modulus size for RSA.
func (r *rsaScheme) SignatureSize() int { return r.bits / 8 }

func (r *rsaScheme) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	var key *rsa.PrivateKey
	if rng == nil {
		key, err = rsa.GenerateKey(rand.Reader, r.bits)
	} else {
		key, err = deterministicRSAKey(r.bits, rng)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sig %s: keygen: %w", r.name, err)
	}
	pub, err = x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, nil, fmt.Errorf("sig %s: marshal public key: %w", r.name, err)
	}
	return pub, x509.MarshalPKCS1PrivateKey(key), nil
}

// deterministicRSAKey derives a test-credential key pair that is a function
// of the bytes read from rng; rsa.GenerateKey reads a byte of the stream at
// random per prime candidate (randutil.MaybeReadByte). Each prime is the
// first odd candidate with its top two bits set (so the modulus has exactly
// bits bits) that passes ProbablyPrime(20), deterministic for a given input,
// and has p-1 coprime to e = 65537.
func deterministicRSAKey(bits int, rng io.Reader) (*rsa.PrivateKey, error) {
	const e = 65537
	bigE, one := big.NewInt(e), big.NewInt(1)
	prime := func(pbits int) (*big.Int, error) {
		buf := make([]byte, (pbits+7)/8)
		for {
			if _, err := io.ReadFull(rng, buf); err != nil {
				return nil, err
			}
			p := new(big.Int).SetBytes(buf)
			p.Rsh(p, uint(8*len(buf)-pbits))
			p.SetBit(p, pbits-1, 1)
			p.SetBit(p, pbits-2, 1)
			p.SetBit(p, 0, 1)
			if p.ProbablyPrime(20) && new(big.Int).GCD(nil, nil, bigE, new(big.Int).Sub(p, one)).Cmp(one) == 0 {
				return p, nil
			}
		}
	}
	p, err := prime(bits - bits/2)
	if err != nil {
		return nil, err
	}
	q := p
	for q.Cmp(p) == 0 {
		if q, err = prime(bits / 2); err != nil {
			return nil, err
		}
	}
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: e},
		D:         new(big.Int).ModInverse(bigE, phi),
		Primes:    []*big.Int{p, q},
	}
	if err := key.Validate(); err != nil {
		return nil, err
	}
	key.Precompute()
	return key, nil
}

func (r *rsaScheme) Sign(priv, msg []byte) ([]byte, error) {
	key, err := x509.ParsePKCS1PrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("sig %s: bad private key: %w", r.name, err)
	}
	digest := sha256.Sum256(msg)
	// The salt source is derived from the key and digest rather than the
	// process's entropy pool. PSS output length is fixed by the modulus, so
	// unlike ECDSA this never affects flight sizes; deriving the salt just
	// removes one more run-to-run difference from captured wire bytes.
	salt := drbg.Derive("pqtls-pss-salt", priv, digest[:])
	return rsa.SignPSS(salt, key, crypto.SHA256, digest[:], &rsa.PSSOptions{
		SaltLength: rsa.PSSSaltLengthEqualsHash,
	})
}

func (r *rsaScheme) Verify(pub, msg, sig []byte) bool {
	parsed, err := x509.ParsePKIXPublicKey(pub)
	if err != nil {
		return false
	}
	key, ok := parsed.(*rsa.PublicKey)
	if !ok {
		return false
	}
	digest := sha256.Sum256(msg)
	return rsa.VerifyPSS(key, crypto.SHA256, digest[:], sig, &rsa.PSSOptions{
		SaltLength: rsa.PSSSaltLengthEqualsHash,
	}) == nil
}

// ed25519Scheme is Ed25519, the smallest and fastest classical baseline.
// It is naturally reproducible: keygen reads exactly 32 bytes from its rng
// (so seeded credential builds regenerate byte-identical keys) and signing
// is deterministic by construction — no derived nonce needed.
type ed25519Scheme struct{}

func (ed25519Scheme) Name() string       { return "ed25519" }
func (ed25519Scheme) Level() int         { return 1 }
func (ed25519Scheme) Hybrid() bool       { return false }
func (ed25519Scheme) PublicKeySize() int { return ed25519.PublicKeySize }
func (ed25519Scheme) SignatureSize() int { return ed25519.SignatureSize }

func (ed25519Scheme) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	pk, sk, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("sig ed25519: keygen: %w", err)
	}
	return pk, sk, nil
}

func (ed25519Scheme) Sign(priv, msg []byte) ([]byte, error) {
	if len(priv) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("sig ed25519: private key is %d bytes, want %d",
			len(priv), ed25519.PrivateKeySize)
	}
	return ed25519.Sign(ed25519.PrivateKey(priv), msg), nil
}

func (ed25519Scheme) Verify(pub, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// ecdsaScheme is ECDSA with the curve's matching SHA-2 hash, used as the
// classical half of the hybrid signature suites.
type ecdsaScheme struct {
	name  string
	curve elliptic.Curve
	level int
}

func (e *ecdsaScheme) Name() string { return e.name }
func (e *ecdsaScheme) Level() int   { return e.level }
func (e *ecdsaScheme) Hybrid() bool { return false }

// PublicKeySize is the DER PKIX encoding of an uncompressed point.
func (e *ecdsaScheme) PublicKeySize() int {
	return 2*(e.curve.Params().BitSize+7)/8 + 27
}

// SignatureSize is the nominal DER-encoded (r, s) size.
func (e *ecdsaScheme) SignatureSize() int {
	return 2*(e.curve.Params().BitSize+7)/8 + 8
}

func (e *ecdsaScheme) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	var key *ecdsa.PrivateKey
	if rng == nil {
		key, err = ecdsa.GenerateKey(e.curve, rand.Reader)
	} else {
		key, err = deterministicECDSAKey(e.curve, rng)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sig %s: keygen: %w", e.name, err)
	}
	pub, err = x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, nil, err
	}
	priv, err = x509.MarshalECPrivateKey(key)
	if err != nil {
		return nil, nil, err
	}
	return pub, priv, nil
}

// deterministicECDSAKey derives a key pair by reading a fixed number of
// bytes from rng, bypassing ecdsa.GenerateKey: the stdlib generator is
// deliberately non-reproducible from a seeded reader (it consumes a byte of
// the stream at random), which would defeat the seeded credential builds
// that keep regenerated tables byte-identical across worker counts.
func deterministicECDSAKey(curve elliptic.Curve, rng io.Reader) (*ecdsa.PrivateKey, error) {
	d, err := drbg.Scalar(rng, curve.Params().N)
	if err != nil {
		return nil, err
	}
	key := &ecdsa.PrivateKey{D: d}
	key.Curve = curve
	key.X, key.Y = curve.ScalarBaseMult(d.Bytes())
	return key, nil
}

// hashToInt converts a digest to the integer the ECDSA equations use,
// mirroring the stdlib's truncation: keep the leftmost BitLen(N) bits.
func hashToInt(hash []byte, n *big.Int) *big.Int {
	orderBits := n.BitLen()
	orderBytes := (orderBits + 7) / 8
	if len(hash) > orderBytes {
		hash = hash[:orderBytes]
	}
	z := new(big.Int).SetBytes(hash)
	if excess := len(hash)*8 - orderBits; excess > 0 {
		z.Rsh(z, uint(excess))
	}
	return z
}

// Sign is deterministic in the style of RFC 6979: the nonce is derived from
// the private key and message digest, so identical inputs always yield the
// identical DER signature. ECDSA's DER length varies with the leading bits
// of (r, s), so randomized nonces would jitter certificate and
// CertificateVerify sizes between otherwise identical runs — the one
// remaining source of non-reproducibility in regenerated tables.
// Derandomized ECDSA also mirrors deployed practice (nonce reuse is
// catastrophic); the variable-time math/big arithmetic is fine for a
// simulator that never holds real secrets.
func (e *ecdsaScheme) Sign(priv, msg []byte) ([]byte, error) {
	key, err := x509.ParseECPrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("sig %s: bad private key: %w", e.name, err)
	}
	digest := sha256.Sum256(msg)
	n := e.curve.Params().N
	z := hashToInt(digest[:], n)
	rng := drbg.Derive("pqtls-ecdsa-nonce", priv, digest[:])
	for {
		k, err := drbg.Scalar(rng, n)
		if err != nil {
			return nil, err
		}
		rx, _ := e.curve.ScalarBaseMult(k.Bytes())
		r := new(big.Int).Mod(rx, n)
		if r.Sign() == 0 {
			continue
		}
		s := new(big.Int).Mul(r, key.D)
		s.Add(s, z)
		s.Mul(s, new(big.Int).ModInverse(k, n))
		s.Mod(s, n)
		if s.Sign() == 0 {
			continue
		}
		return asn1.Marshal(struct{ R, S *big.Int }{r, s})
	}
}

func (e *ecdsaScheme) Verify(pub, msg, sig []byte) bool {
	parsed, err := x509.ParsePKIXPublicKey(pub)
	if err != nil {
		return false
	}
	key, ok := parsed.(*ecdsa.PublicKey)
	if !ok {
		return false
	}
	digest := sha256.Sum256(msg)
	return ecdsa.VerifyASN1(key, digest[:], sig)
}
