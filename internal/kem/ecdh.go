package kem

import (
	"crypto/ecdh"
	"crypto/elliptic"
	"crypto/rand"
	"fmt"
	"io"

	"pqtls/internal/drbg"
)

// ecdhKEM adapts a crypto/ecdh curve to the KEM interface: encapsulation
// generates an ephemeral key and the "ciphertext" is its public point —
// exactly the server key_share of a TLS 1.3 (EC)DHE exchange.
type ecdhKEM struct {
	name   string
	level  int
	curve  ecdh.Curve
	pkSize int
}

func (e *ecdhKEM) Name() string          { return e.name }
func (e *ecdhKEM) Level() int            { return e.level }
func (e *ecdhKEM) Hybrid() bool          { return false }
func (e *ecdhKEM) PublicKeySize() int    { return e.pkSize }
func (e *ecdhKEM) CiphertextSize() int   { return e.pkSize }
func (e *ecdhKEM) SharedSecretSize() int { return sharedSize(e.curve) }

func sharedSize(c ecdh.Curve) int {
	switch c {
	case ecdh.X25519():
		return 32
	case ecdh.P256():
		return 32
	case ecdh.P384():
		return 48
	default:
		return 66 // P-521
	}
}

func (e *ecdhKEM) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	var key *ecdh.PrivateKey
	if rng == nil {
		key, err = e.curve.GenerateKey(rand.Reader)
	} else {
		key, err = deterministicECDHKey(e.curve, rng)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("kem %s: keygen: %w", e.name, err)
	}
	return key.PublicKey().Bytes(), key.Bytes(), nil
}

// deterministicECDHKey derives a key pair by reading a fixed number of
// bytes from rng. crypto/ecdh's GenerateKey consumes a byte of the stream
// at random (randutil.MaybeReadByte), so handing it a seeded reader shifts
// every later draw from a shared DRBG unpredictably — enough to jitter
// downstream variable-length signatures between otherwise identical runs.
// Endpoints share one DRBG per simulated handshake, so keygen must consume
// a deterministic amount of it.
func deterministicECDHKey(curve ecdh.Curve, rng io.Reader) (*ecdh.PrivateKey, error) {
	if curve == ecdh.X25519() {
		// An X25519 private key is a raw 32-byte scalar (clamped at use).
		buf := make([]byte, 32)
		if _, err := io.ReadFull(rng, buf); err != nil {
			return nil, err
		}
		return curve.NewPrivateKey(buf)
	}
	var params *elliptic.CurveParams
	switch curve {
	case ecdh.P256():
		params = elliptic.P256().Params()
	case ecdh.P384():
		params = elliptic.P384().Params()
	case ecdh.P521():
		params = elliptic.P521().Params()
	default:
		return nil, fmt.Errorf("kem: no deterministic keygen for curve %v", curve)
	}
	d, err := drbg.Scalar(rng, params.N)
	if err != nil {
		return nil, err
	}
	return curve.NewPrivateKey(d.FillBytes(make([]byte, (params.N.BitLen()+7)/8)))
}

func (e *ecdhKEM) Encapsulate(rng io.Reader, pub []byte) (ct, ss []byte, err error) {
	peer, err := e.curve.NewPublicKey(pub)
	if err != nil {
		return nil, nil, fmt.Errorf("kem %s: bad public key: %w", e.name, err)
	}
	var eph *ecdh.PrivateKey
	if rng == nil {
		eph, err = e.curve.GenerateKey(rand.Reader)
	} else {
		eph, err = deterministicECDHKey(e.curve, rng)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("kem %s: ephemeral keygen: %w", e.name, err)
	}
	ss, err = eph.ECDH(peer)
	if err != nil {
		return nil, nil, fmt.Errorf("kem %s: ECDH: %w", e.name, err)
	}
	return eph.PublicKey().Bytes(), ss, nil
}

func (e *ecdhKEM) Decapsulate(priv, ct []byte) ([]byte, error) {
	key, err := e.curve.NewPrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("kem %s: bad private key: %w", e.name, err)
	}
	peer, err := e.curve.NewPublicKey(ct)
	if err != nil {
		return nil, fmt.Errorf("kem %s: bad ciphertext: %w", e.name, err)
	}
	ss, err := key.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("kem %s: ECDH: %w", e.name, err)
	}
	return ss, nil
}
