package sig

import (
	"fmt"
	"io"

	"pqtls/internal/wire"
)

// composite combines a classical and a PQ signature per the composite-
// signatures approach (draft-ounsworth-pq-composite-sigs): both schemes sign
// the same message, both signatures travel on the wire, and verification
// requires both — so the PKI stays secure unless both schemes are broken.
type composite struct {
	name    string
	classic Scheme
	pq      Scheme
	level   int
}

func newComposite(name string, classic, pq Scheme, level int) Scheme {
	return &composite{name: name, classic: classic, pq: pq, level: level}
}

func (c *composite) Name() string { return c.name }
func (c *composite) Level() int   { return c.level }
func (c *composite) Hybrid() bool { return true }

func (c *composite) PublicKeySize() int {
	return 4 + c.classic.PublicKeySize() + c.pq.PublicKeySize()
}

func (c *composite) SignatureSize() int {
	return 4 + c.classic.SignatureSize() + c.pq.SignatureSize()
}

// A composite public key, private key or signature is the classical
// encoding behind a u32 length (classical encodings are variable-size),
// then the PQ encoding.

func (c *composite) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	cPub, cPriv, err := c.classic.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	pPub, pPriv, err := c.pq.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	var pubB, privB wire.Builder
	pubB.AddUint32LengthPrefixed(func(b *wire.Builder) { b.AddBytes(cPub) })
	pubB.AddBytes(pPub)
	privB.AddUint32LengthPrefixed(func(b *wire.Builder) { b.AddBytes(cPriv) })
	privB.AddBytes(pPriv)
	return pubB.Bytes(), privB.Bytes(), nil
}

func (c *composite) Sign(priv, msg []byte) ([]byte, error) {
	pPriv := wire.String(priv)
	var cPriv wire.String
	if !pPriv.ReadUint32LengthPrefixed(&cPriv) {
		return nil, fmt.Errorf("sig %s: malformed composite private key", c.name)
	}
	cSig, err := c.classic.Sign(cPriv, msg)
	if err != nil {
		return nil, err
	}
	pSig, err := c.pq.Sign(pPriv, msg)
	if err != nil {
		return nil, err
	}
	b := wire.NewBuilder(make([]byte, 0, 4+len(cSig)+len(pSig)))
	b.AddUint32LengthPrefixed(func(b *wire.Builder) { b.AddBytes(cSig) })
	b.AddBytes(pSig)
	return b.Bytes(), nil
}

func (c *composite) Verify(pub, msg, sig []byte) bool {
	pPub, pSig := wire.String(pub), wire.String(sig)
	var cPub, cSig wire.String
	if !pPub.ReadUint32LengthPrefixed(&cPub) || !pSig.ReadUint32LengthPrefixed(&cSig) {
		return false
	}
	return c.classic.Verify(cPub, msg, cSig) && c.pq.Verify(pPub, msg, pSig)
}
