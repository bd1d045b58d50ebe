package tls13

import (
	"sync/atomic"
	"unsafe"

	"pqtls/internal/pki"
)

// Per-Config cache for state that is identical on every handshake built
// from the same Config: the marshaled Certificate message.
//
// The field lives on Config as a plain unsafe.Pointer slot (see config.go)
// rather than atomic.Pointer[T] because Config is value-copied throughout
// the codebase and atomic.Pointer's noCopy marker would trip vet. The cache
// entry records the identity of the chain it was built from and is rebuilt
// on mismatch, so a copied-then-mutated Config stays correct — it just
// repopulates its own slot.

// certMsgCache memoizes the marshaled Certificate message for a chain.
type certMsgCache struct {
	chain0 *pki.Certificate // identity of the chain it was built from
	n      int
	msg    []byte
}

// certificateMessage returns the marshaled Certificate handshake message for
// c.Chain, cached across handshakes. The returned bytes are shared: callers
// must not mutate them (sealHandshake clones record payloads, so the normal
// server path never does).
func (c *Config) certificateMessage() []byte {
	if len(c.Chain) == 0 {
		return nil
	}
	if p := (*certMsgCache)(atomic.LoadPointer(&c.certMsgCache)); p != nil &&
		p.chain0 == c.Chain[0] && p.n == len(c.Chain) {
		return p.msg
	}
	raw := make([][]byte, len(c.Chain))
	for i, cert := range c.Chain {
		raw[i] = cert.Marshal()
	}
	entry := &certMsgCache{chain0: c.Chain[0], n: len(c.Chain), msg: marshalCertificate(raw)}
	atomic.StorePointer(&c.certMsgCache, unsafe.Pointer(entry))
	return entry.msg
}
