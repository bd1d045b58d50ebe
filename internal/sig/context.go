package sig

import (
	"sync"
	"sync/atomic"
)

// Signer is a reusable signing context bound to one private key. For
// schemes with expensive per-signature key expansion (Dilithium re-derives
// the NTT-domain matrix and secret vectors on every Sign) the context
// hoists that work out of the hot path; for everything else it is a thin
// closure over Scheme.Sign. Implementations are safe for concurrent use.
type Signer interface {
	Sign(msg []byte) ([]byte, error)
}

// Verifier is a reusable verification context bound to one public key.
type Verifier interface {
	Verify(msg, sig []byte) bool
}

// contextScheme is implemented by schemes that provide precomputed
// signing/verification contexts (wired through the pqScheme adapter).
type contextScheme interface {
	newSigner(priv []byte) (Signer, error)
	newVerifier(pub []byte) (Verifier, error)
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

// NewVerifier returns a verification context for pub, precomputed when the
// scheme supports it. Results are identical to Scheme.Verify(pub, msg, sig).
func NewVerifier(s Scheme, pub []byte) Verifier {
	if cs, ok := s.(contextScheme); ok {
		if v, err := cs.newVerifier(pub); err == nil && v != nil {
			return v
		}
	}
	return schemeVerifier{s: s, pub: pub}
}

type schemeSigner struct {
	s    Scheme
	priv []byte
}

func (g schemeSigner) Sign(msg []byte) ([]byte, error) { return g.s.Sign(g.priv, msg) }

type schemeVerifier struct {
	s   Scheme
	pub []byte
}

func (g schemeVerifier) Verify(msg, sig []byte) bool { return g.s.Verify(g.pub, msg, sig) }

// VerifierCache memoizes verification contexts by (scheme, public key). A
// TLS client talking to a fleet of servers sees a handful of certificate
// keys over thousands of handshakes; caching the precomputed contexts
// amortizes Dilithium's matrix expansion across all of them. Safe for
// concurrent use.
type VerifierCache struct {
	mu  sync.Mutex
	m   map[string]Verifier
	cap int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewVerifierCache returns a cache bounded to capacity entries (<= 0 means
// a default of 64). Eviction is random-victim: the key population is tiny
// in practice and a full cache signals misuse, not a working set.
func NewVerifierCache(capacity int) *VerifierCache {
	if capacity <= 0 {
		capacity = 64
	}
	return &VerifierCache{m: make(map[string]Verifier), cap: capacity}
}

// For returns the cached verification context for pub under s, building
// and caching one on first sight.
func (c *VerifierCache) For(s Scheme, pub []byte) Verifier {
	key := s.Name() + "\x00" + string(pub)
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return v
	}
	c.mu.Unlock()
	c.misses.Add(1)
	// Build outside the lock: Dilithium context construction is ~100µs and
	// must not serialize unrelated lookups.
	v := NewVerifier(s, pub)
	c.mu.Lock()
	if _, resident := c.m[key]; !resident && len(c.m) >= c.cap {
		for k := range c.m {
			delete(c.m, k)
			break
		}
		c.evictions.Add(1)
	}
	c.m[key] = v
	c.mu.Unlock()
	return v
}

// VerifierCacheStats is a point-in-time view of the cache's counters.
type VerifierCacheStats struct {
	Hits      uint64 // lookups answered from the cache
	Misses    uint64 // lookups that built a fresh context
	Evictions uint64 // resident entries displaced by the size cap
	Entries   int    // current resident count (≤ the cap)
}

// Stats returns the cache's counters and current size.
func (c *VerifierCache) Stats() VerifierCacheStats {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return VerifierCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   n,
	}
}
