// Package pki implements a minimal x509-style public key infrastructure
// with pluggable (including post-quantum) signature algorithms: TLV-encoded
// certificates, issuance, and chain verification against a root store.
//
// Certificate size is a first-order effect in the paper (PQ signatures blow
// up the Certificate message), so the encoding overhead here is kept small
// and constant; the payload is dominated by the embedded public key and the
// issuer's signature exactly as in DER.
package pki

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"pqtls/internal/sig"
	"pqtls/internal/wire"
)

// Certificate binds a subject name to a public key under a signature
// algorithm, signed by an issuer.
type Certificate struct {
	Serial    uint64
	Subject   string
	Issuer    string
	Algorithm string // sig.Scheme name of the *subject's* key
	SigAlg    string // sig.Scheme name the *issuer* signed with
	PublicKey []byte
	Signature []byte
}

// Chain is what a TLS server presents: the leaf first, optional
// intermediates after, root omitted (the client has it).
type Chain struct {
	Certificates []*Certificate
	PrivateKey   []byte // leaf private key
}

// Pool is a set of trusted root certificates.
type Pool struct {
	roots map[string]*Certificate // by subject
}

// NewPool creates a pool from root certificates.
func NewPool(roots ...*Certificate) *Pool {
	p := &Pool{roots: make(map[string]*Certificate, len(roots))}
	for _, r := range roots {
		p.roots[r.Subject] = r
	}
	return p
}

// Errors returned by chain verification.
var (
	ErrUnknownRoot  = errors.New("pki: issuer not found in root pool")
	ErrBadSignature = errors.New("pki: certificate signature invalid")
	ErrEmptyChain   = errors.New("pki: empty certificate chain")
)

// tbsBytes returns the to-be-signed encoding (everything but the signature).
func (c *Certificate) tbsBytes() []byte {
	b := wire.NewBuilder(make([]byte, 0, c.tbsSize()))
	c.addTBS(b)
	return b.Bytes()
}

func (c *Certificate) tbsSize() int {
	return 8 + 2*4 + len(c.Subject) + len(c.Issuer) + len(c.Algorithm) + len(c.SigAlg) + 3 + len(c.PublicKey)
}

// addTBS writes the serial, the four names behind u16 lengths and the
// public key behind a u24 length.
func (c *Certificate) addTBS(b *wire.Builder) {
	b.AddUint32(uint32(c.Serial >> 32))
	b.AddUint32(uint32(c.Serial))
	for _, s := range [...]string{c.Subject, c.Issuer, c.Algorithm, c.SigAlg} {
		b.AddUint16LengthPrefixed(func(b *wire.Builder) { b.AddBytes([]byte(s)) })
	}
	b.AddUint24LengthPrefixed(func(b *wire.Builder) { b.AddBytes(c.PublicKey) })
}

// Marshal encodes the certificate: the TBS, then the signature behind a u24
// length.
func (c *Certificate) Marshal() []byte {
	b := wire.NewBuilder(make([]byte, 0, c.tbsSize()+3+len(c.Signature)))
	c.addTBS(b)
	b.AddUint24LengthPrefixed(func(b *wire.Builder) { b.AddBytes(c.Signature) })
	return b.Bytes()
}

// Unmarshal decodes a certificate produced by Marshal. The result shares no
// memory with data.
func Unmarshal(data []byte) (*Certificate, error) {
	// One private copy backs PublicKey and Signature.
	s := wire.String(bytes.Clone(data))
	var hi, lo uint32
	if !s.ReadUint32(&hi) || !s.ReadUint32(&lo) {
		return nil, errors.New("pki: truncated serial")
	}
	var subject, issuer, alg, sigAlg, pub, signature wire.String
	if !s.ReadUint16LengthPrefixed(&subject) || !s.ReadUint16LengthPrefixed(&issuer) ||
		!s.ReadUint16LengthPrefixed(&alg) || !s.ReadUint16LengthPrefixed(&sigAlg) ||
		!s.ReadUint24LengthPrefixed(&pub) || !s.ReadUint24LengthPrefixed(&signature) {
		return nil, errors.New("pki: truncated field")
	}
	if !s.Empty() {
		return nil, errors.New("pki: trailing bytes after certificate")
	}
	return &Certificate{
		Serial:    uint64(hi)<<32 | uint64(lo),
		Subject:   string(subject),
		Issuer:    string(issuer),
		Algorithm: string(alg),
		SigAlg:    string(sigAlg),
		PublicKey: pub,
		Signature: signature,
	}, nil
}

// SelfSigned creates a self-signed root certificate for the given scheme.
func SelfSigned(subject string, scheme sig.Scheme, rng io.Reader) (*Certificate, []byte, error) {
	pub, priv, err := scheme.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	cert := &Certificate{
		Serial:    1,
		Subject:   subject,
		Issuer:    subject,
		Algorithm: scheme.Name(),
		SigAlg:    scheme.Name(),
		PublicKey: pub,
	}
	cert.Signature, err = scheme.Sign(priv, cert.tbsBytes())
	if err != nil {
		return nil, nil, err
	}
	return cert, priv, nil
}

// Issue creates a certificate for subjectPub signed by the issuer.
func Issue(serial uint64, subject string, subjectAlg string, subjectPub []byte,
	issuer *Certificate, issuerPriv []byte) (*Certificate, error) {
	scheme, err := sig.ByName(issuer.Algorithm)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{
		Serial:    serial,
		Subject:   subject,
		Issuer:    issuer.Subject,
		Algorithm: subjectAlg,
		SigAlg:    scheme.Name(),
		PublicKey: subjectPub,
	}
	cert.Signature, err = scheme.Sign(issuerPriv, cert.tbsBytes())
	if err != nil {
		return nil, err
	}
	return cert, nil
}

// Verify checks a presented chain: every certificate must be signed by its
// successor (or by a pool root for the last one), and signatures must be
// valid. It returns the leaf on success.
func (p *Pool) Verify(chain []*Certificate) (*Certificate, error) {
	if len(chain) == 0 {
		return nil, ErrEmptyChain
	}
	for i, cert := range chain {
		var issuerCert *Certificate
		if i+1 < len(chain) {
			issuerCert = chain[i+1]
		} else {
			root, ok := p.roots[cert.Issuer]
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownRoot, cert.Issuer)
			}
			issuerCert = root
		}
		scheme, err := sig.ByName(cert.SigAlg)
		if err != nil {
			return nil, err
		}
		if scheme.Name() != issuerCert.Algorithm {
			return nil, fmt.Errorf("pki: certificate %q signed with %s but issuer key is %s",
				cert.Subject, cert.SigAlg, issuerCert.Algorithm)
		}
		if !scheme.Verify(issuerCert.PublicKey, cert.tbsBytes(), cert.Signature) {
			return nil, fmt.Errorf("%w: %q", ErrBadSignature, cert.Subject)
		}
	}
	return chain[0], nil
}
