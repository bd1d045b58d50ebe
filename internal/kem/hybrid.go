package kem

import (
	"fmt"
	"io"

	"pqtls/internal/wire"
)

// hybridKEM combines a classical and a post-quantum KEM following
// draft-ietf-tls-hybrid-design: public keys, ciphertexts, and shared
// secrets are fixed-size concatenations, so an attacker must break both
// components to recover the handshake secret.
type hybridKEM struct {
	name    string
	classic KEM
	pq      KEM
}

func newHybrid(name string, classic, pq KEM) KEM {
	return &hybridKEM{name: name, classic: classic, pq: pq}
}

func (h *hybridKEM) Name() string { return h.name }

// Level is the PQ component's level; the classical component is chosen to
// match it (p256↔L1, p384↔L3, p521↔L5), as in the paper.
func (h *hybridKEM) Level() int { return h.pq.Level() }

func (h *hybridKEM) Hybrid() bool { return true }

func (h *hybridKEM) PublicKeySize() int {
	return h.classic.PublicKeySize() + h.pq.PublicKeySize()
}

func (h *hybridKEM) CiphertextSize() int {
	return h.classic.CiphertextSize() + h.pq.CiphertextSize()
}

func (h *hybridKEM) SharedSecretSize() int {
	return h.classic.SharedSecretSize() + h.pq.SharedSecretSize()
}

func (h *hybridKEM) GenerateKey(rng io.Reader) (pub, priv []byte, err error) {
	cPub, cPriv, err := h.classic.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	pPub, pPriv, err := h.pq.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	// Private halves are length-prefixed because classical ECDH private
	// keys are not fixed-size across curves.
	b := wire.NewBuilder(make([]byte, 0, 8+len(cPriv)+len(pPriv)))
	b.AddUint32LengthPrefixed(func(b *wire.Builder) { b.AddBytes(cPriv) })
	b.AddUint32LengthPrefixed(func(b *wire.Builder) { b.AddBytes(pPriv) })
	return append(cPub, pPub...), b.Bytes(), nil
}

func (h *hybridKEM) Encapsulate(rng io.Reader, pub []byte) (ct, ss []byte, err error) {
	if len(pub) != h.PublicKeySize() {
		return nil, nil, fmt.Errorf("kem %s: public key is %d bytes, want %d", h.name, len(pub), h.PublicKeySize())
	}
	split := h.classic.PublicKeySize()
	cCT, cSS, err := h.classic.Encapsulate(rng, pub[:split])
	if err != nil {
		return nil, nil, err
	}
	pCT, pSS, err := h.pq.Encapsulate(rng, pub[split:])
	if err != nil {
		return nil, nil, err
	}
	return append(cCT, pCT...), append(cSS, pSS...), nil
}

func (h *hybridKEM) Decapsulate(priv, ct []byte) ([]byte, error) {
	if len(ct) != h.CiphertextSize() {
		return nil, fmt.Errorf("kem %s: ciphertext is %d bytes, want %d", h.name, len(ct), h.CiphertextSize())
	}
	s := wire.String(priv)
	var cPriv, pPriv wire.String
	if !s.ReadUint32LengthPrefixed(&cPriv) || !s.ReadUint32LengthPrefixed(&pPriv) || !s.Empty() {
		return nil, fmt.Errorf("kem %s: malformed private key", h.name)
	}
	split := h.classic.CiphertextSize()
	cSS, err := h.classic.Decapsulate(cPriv, ct[:split])
	if err != nil {
		return nil, err
	}
	pSS, err := h.pq.Decapsulate(pPriv, ct[split:])
	if err != nil {
		return nil, err
	}
	return append(cSS, pSS...), nil
}
