package kem

import (
	"crypto/ecdh"
	"io"

	"pqtls/internal/crypto/bike"
	"pqtls/internal/crypto/hqc"
	"pqtls/internal/crypto/mlkem"
)

// pqKEM adapts the parameter-set style crypto packages to the KEM interface.
type pqKEM struct {
	name   string
	level  int
	pkSize int
	ctSize int
	ssSize int
	keygen func(io.Reader) (pub, priv []byte, err error)
	encaps func(io.Reader, []byte) (ct, ss []byte, err error)
	decaps func(priv, ct []byte) ([]byte, error)
}

func (k *pqKEM) Name() string          { return k.name }
func (k *pqKEM) Level() int            { return k.level }
func (k *pqKEM) Hybrid() bool          { return false }
func (k *pqKEM) PublicKeySize() int    { return k.pkSize }
func (k *pqKEM) CiphertextSize() int   { return k.ctSize }
func (k *pqKEM) SharedSecretSize() int { return k.ssSize }

func (k *pqKEM) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	return k.keygen(rng)
}

func (k *pqKEM) Encapsulate(rng io.Reader, pub []byte) (ct, ss []byte, err error) {
	return k.encaps(rng, pub)
}

func (k *pqKEM) Decapsulate(priv, ct []byte) ([]byte, error) {
	return k.decaps(priv, ct)
}

func kyberKEM(p *mlkem.Params, level int) KEM {
	return &pqKEM{
		name: p.Name, level: level,
		pkSize: p.PublicKeySize(), ctSize: p.CiphertextSize(), ssSize: p.SharedSecretSize(),
		keygen: p.GenerateKey, encaps: p.Encapsulate, decaps: p.Decapsulate,
	}
}

func hqcKEM(p *hqc.Params, level int) KEM {
	return &pqKEM{
		name: p.Name, level: level,
		pkSize: p.PublicKeySize(), ctSize: p.CiphertextSize(), ssSize: p.SharedSecretSize(),
		keygen: p.GenerateKey, encaps: p.Encapsulate, decaps: p.Decapsulate,
	}
}

func bikeKEM(p *bike.Params, level int) KEM {
	return &pqKEM{
		name: p.Name, level: level,
		pkSize: p.PublicKeySize(), ctSize: p.CiphertextSize(), ssSize: p.SharedSecretSize(),
		keygen: p.GenerateKey, encaps: p.Encapsulate, decaps: p.Decapsulate,
	}
}

// init registers the 23 key agreements of Table 2a.
func init() {
	x25519 := &ecdhKEM{name: "x25519", level: 1, curve: ecdh.X25519(), pkSize: 32}
	p256 := &ecdhKEM{name: "p256", level: 1, curve: ecdh.P256(), pkSize: 65}
	p384 := &ecdhKEM{name: "p384", level: 3, curve: ecdh.P384(), pkSize: 97}
	p521 := &ecdhKEM{name: "p521", level: 5, curve: ecdh.P521(), pkSize: 133}

	kyber512 := kyberKEM(mlkem.Kyber512, 1)
	kyber90s512 := kyberKEM(mlkem.Kyber90s512, 1)
	kyber768 := kyberKEM(mlkem.Kyber768, 3)
	kyber90s768 := kyberKEM(mlkem.Kyber90s768, 3)
	kyber1024 := kyberKEM(mlkem.Kyber1024, 5)
	kyber90s1024 := kyberKEM(mlkem.Kyber90s1024, 5)

	hqc128 := hqcKEM(hqc.HQC128, 1)
	hqc192 := hqcKEM(hqc.HQC192, 3)
	hqc256 := hqcKEM(hqc.HQC256, 5)

	bikel1 := bikeKEM(bike.BikeL1, 1)
	bikel3 := bikeKEM(bike.BikeL3, 3)

	for _, k := range []KEM{
		x25519, p256, p384, p521,
		kyber512, kyber90s512, kyber768, kyber90s768, kyber1024, kyber90s1024,
		hqc128, hqc192, hqc256,
		bikel1, bikel3,
	} {
		register(k)
	}

	// Hybrids, named and paired exactly as in Table 2a.
	register(newHybrid("p256_bikel1", p256, bikel1))
	register(newHybrid("p256_hqc128", p256, hqc128))
	register(newHybrid("p256_kyber512", p256, kyber512))
	register(newHybrid("p384_bikel3", p384, bikel3))
	register(newHybrid("p384_hqc192", p384, hqc192))
	register(newHybrid("p384_kyber768", p384, kyber768))
	register(newHybrid("p521_hqc256", p521, hqc256))
	register(newHybrid("p521_kyber1024", p521, kyber1024))
}
