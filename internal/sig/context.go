package sig

// Signer is a reusable signing context bound to one private key. For
// schemes with expensive per-signature key expansion (Dilithium re-derives
// the NTT-domain matrix and secret vectors on every Sign) the context
// hoists that work out of the hot path; for everything else it is a thin
// closure over Scheme.Sign. Implementations are safe for concurrent use.
type Signer interface {
	Sign(msg []byte) ([]byte, error)
}

// contextScheme is implemented by schemes that provide a precomputed
// signing context (wired through the pqScheme adapter).
type contextScheme interface {
	newSigner(priv []byte) (Signer, error)
}

// NewSigner returns a signing context for priv, precomputed when the
// scheme supports it. Signatures are identical to Scheme.Sign(priv, msg).
func NewSigner(s Scheme, priv []byte) Signer {
	if cs, ok := s.(contextScheme); ok {
		if sg, err := cs.newSigner(priv); err == nil && sg != nil {
			return sg
		}
	}
	return schemeSigner{s: s, priv: priv}
}

type schemeSigner struct {
	s    Scheme
	priv []byte
}

func (g schemeSigner) Sign(msg []byte) ([]byte, error) { return g.s.Sign(g.priv, msg) }
