package sig

import (
	"crypto/elliptic"
	"io"

	"pqtls/internal/crypto/falcon"
	"pqtls/internal/crypto/mldsa"
	"pqtls/internal/crypto/sphincs"
)

// pqScheme adapts the parameter-set style crypto packages.
type pqScheme struct {
	name    string
	level   int
	pkSize  int
	sigSize int
	keygen  func(io.Reader) (pub, priv []byte, err error)
	sign    func(priv, msg []byte) ([]byte, error)
	verify  func(pub, msg, sig []byte) bool
	// signerFn, when set, builds the scheme's precomputed signing context
	// (see NewSigner).
	signerFn func(priv []byte) (Signer, error)
}

func (s *pqScheme) Name() string       { return s.name }
func (s *pqScheme) Level() int         { return s.level }
func (s *pqScheme) Hybrid() bool       { return false }
func (s *pqScheme) PublicKeySize() int { return s.pkSize }
func (s *pqScheme) SignatureSize() int { return s.sigSize }

func (s *pqScheme) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	return s.keygen(rng)
}
func (s *pqScheme) Sign(priv, msg []byte) ([]byte, error) { return s.sign(priv, msg) }
func (s *pqScheme) Verify(pub, msg, sig []byte) bool      { return s.verify(pub, msg, sig) }

func (s *pqScheme) newSigner(priv []byte) (Signer, error) {
	if s.signerFn == nil {
		return nil, nil
	}
	return s.signerFn(priv)
}

func dilithiumScheme(p *mldsa.Params, level int) Scheme {
	return &pqScheme{name: p.Name, level: level,
		pkSize: p.PublicKeySize(), sigSize: p.SignatureSize(),
		keygen: p.GenerateKey, sign: p.Sign, verify: p.Verify,
		signerFn: func(priv []byte) (Signer, error) {
			return p.NewSigningKey(priv)
		}}
}

func falconScheme(p *falcon.Params, level int) Scheme {
	return &pqScheme{name: p.Name, level: level,
		pkSize: p.PublicKeySize(), sigSize: p.SignatureSize(),
		keygen: p.GenerateKey, sign: p.Sign, verify: p.Verify}
}

func sphincsScheme(p *sphincs.Params, level int) Scheme {
	return &pqScheme{name: p.Name, level: level,
		pkSize: p.PublicKeySize(), sigSize: p.SignatureSize(),
		keygen: p.GenerateKey, sign: p.Sign, verify: p.Verify}
}

// init registers the signature algorithms of Tables 2b and 4b. Levels
// follow the paper's grouping; rsa:1024/rsa:2048 are "sub-level one" (0).
func init() {
	rsa1024 := &rsaScheme{name: "rsa:1024", bits: 1024, level: 0}
	rsa2048 := &rsaScheme{name: "rsa:2048", bits: 2048, level: 0}
	rsa3072 := &rsaScheme{name: "rsa:3072", bits: 3072, level: 1}
	rsa4096 := &rsaScheme{name: "rsa:4096", bits: 4096, level: 1}

	p256 := &ecdsaScheme{name: "ecdsa-p256", curve: elliptic.P256(), level: 1}
	p384 := &ecdsaScheme{name: "ecdsa-p384", curve: elliptic.P384(), level: 3}
	p521 := &ecdsaScheme{name: "ecdsa-p521", curve: elliptic.P521(), level: 5}

	falcon512 := falconScheme(falcon.Falcon512, 1)
	falcon1024 := falconScheme(falcon.Falcon1024, 5)
	sphincs128 := sphincsScheme(sphincs.SPHINCS128f, 1)
	sphincs192 := sphincsScheme(sphincs.SPHINCS192f, 3)
	sphincs256 := sphincsScheme(sphincs.SPHINCS256f, 5)
	sphincs128s := sphincsScheme(sphincs.SPHINCS128s, 1)
	sphincs192s := sphincsScheme(sphincs.SPHINCS192s, 3)
	sphincs256s := sphincsScheme(sphincs.SPHINCS256s, 5)
	dilithium2 := dilithiumScheme(mldsa.Dilithium2, 2)
	dilithium2aes := dilithiumScheme(mldsa.Dilithium2AES, 2)
	dilithium3 := dilithiumScheme(mldsa.Dilithium3, 3)
	dilithium3aes := dilithiumScheme(mldsa.Dilithium3AES, 3)
	dilithium5 := dilithiumScheme(mldsa.Dilithium5, 5)
	dilithium5aes := dilithiumScheme(mldsa.Dilithium5AES, 5)

	for _, s := range []Scheme{
		rsa1024, rsa2048, rsa3072, rsa4096,
		p256, p384, p521, ed25519Scheme{},
		falcon512, falcon1024,
		sphincs128, sphincs192, sphincs256,
		sphincs128s, sphincs192s, sphincs256s,
		dilithium2, dilithium2aes, dilithium3, dilithium3aes, dilithium5, dilithium5aes,
	} {
		register(s)
	}

	// Composite hybrids, named and paired exactly as in Tables 2b and 4b.
	register(newComposite("p256_falcon512", p256, falcon512, 1))
	register(newComposite("p256_sphincs128", p256, sphincs128, 1))
	register(newComposite("p256_dilithium2", p256, dilithium2, 2))
	register(newComposite("rsa3072_dilithium2", rsa3072, dilithium2, 2))
	register(newComposite("p384_dilithium3", p384, dilithium3, 3))
	register(newComposite("p384_sphincs192", p384, sphincs192, 3))
	register(newComposite("p521_dilithium5", p521, dilithium5, 5))
	register(newComposite("p521_falcon1024", p521, falcon1024, 5))
	register(newComposite("p521_sphincs256", p521, sphincs256, 5))
}
