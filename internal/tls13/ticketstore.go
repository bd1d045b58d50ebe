package tls13

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"io"
	randv2 "math/rand/v2"
	"sync/atomic"

	"pqtls/internal/wire"
)

// TicketStore seals and opens session tickets under one process-wide key and
// counts what happens to them. Server handshakes are per-connection objects;
// the store is the piece of resumption state that must outlive a connection,
// so a runtime (internal/live) creates one store and shares it across every
// Server it constructs — a ticket issued on connection A then resumes on
// connection B, exactly as a multi-worker deployment sharing STEK material
// would behave.
//
// The store is built to never serialize concurrent handshakes: the AEAD is
// constructed once (AES-GCM is safe for concurrent use), nonces come from
// per-shard counters instead of a per-Seal crypto/rand read, and the
// counters are cache-line-padded atomics summed only at Stats time. All
// methods are safe for concurrent use.
type TicketStore struct {
	key  [ticketKeySize]byte
	aead cipher.AEAD
	// prefix is a per-store random nonce prefix; combined with the shard
	// byte and the per-shard 56-bit counter it keeps (key, nonce) pairs
	// unique within a store and collision-negligible across stores sharing
	// one key.
	prefix [4]byte

	shards [ticketShards]ticketShard
}

// ticketShards spreads the hot counters; a small power of two is enough to
// take the shared-STEK path off every handshake's critical section.
const ticketShards = 8

// ticketShard is padded out to its own cache line so concurrent Seal/Open
// on different shards never false-share.
type ticketShard struct {
	issued   atomic.Uint64
	redeemed atomic.Uint64
	rejected atomic.Uint64
	sealSeq  atomic.Uint64
	_        [32]byte
}

// ticketNonceSize matches the GCM default; the wire layout (nonce || box)
// is unchanged from the lock-based store.
const ticketNonceSize = 12

// NewTicketStore builds a store over a fixed key. Instances (or processes)
// constructed with the same key can resume each other's sessions.
func NewTicketStore(key [ticketKeySize]byte) *TicketStore {
	ts := &TicketStore{key: key}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("tls13: ticket AES key: " + err.Error()) // 16-byte key, unreachable
	}
	ts.aead, err = cipher.NewGCM(block)
	if err != nil {
		panic("tls13: ticket GCM: " + err.Error())
	}
	if _, err := io.ReadFull(rand.Reader, ts.prefix[:]); err != nil {
		panic("tls13: ticket nonce prefix: " + err.Error())
	}
	return ts
}

// NewRandomTicketStore builds a store over a fresh random key: tickets are
// only redeemable within this process's lifetime.
func NewRandomTicketStore() (*TicketStore, error) {
	var key [ticketKeySize]byte
	if _, err := io.ReadFull(rand.Reader, key[:]); err != nil {
		return nil, err
	}
	return NewTicketStore(key), nil
}

// Seal encrypts (psk, kemName) into an opaque ticket: nonce || AES-GCM box.
func (ts *TicketStore) Seal(psk []byte, kemName string) ([]byte, error) {
	if len(psk) > 255 || len(kemName) > 255 {
		return nil, errors.New("tls13: ticket state too large")
	}
	idx := randv2.Uint32() % ticketShards
	sh := &ts.shards[idx]
	seq := sh.sealSeq.Add(1)
	if seq >= 1<<56 {
		return nil, errors.New("tls13: ticket nonce counter exhausted")
	}

	buf := make([]byte, ticketNonceSize, ticketNonceSize+2+len(psk)+len(kemName)+16)
	copy(buf, ts.prefix[:])
	buf[4] = byte(idx)
	for i := 0; i < 7; i++ {
		buf[5+i] = byte(seq >> (8 * (6 - i)))
	}
	// Plaintext is assembled after the nonce and sealed in place: the GCM
	// output region aliases the plaintext exactly, the supported overlap.
	b := wire.NewBuilder(buf)
	b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes(psk) })
	b.AddUint8LengthPrefixed(func(b *wire.Builder) { b.AddBytes([]byte(kemName)) })
	buf = b.Bytes()
	out := ts.aead.Seal(buf[:ticketNonceSize], buf[:ticketNonceSize], buf[ticketNonceSize:], nil)
	sh.issued.Add(1)
	return out, nil
}

// Open decrypts a presented ticket, counting it as redeemed on success and
// rejected on failure (wrong key, corruption, truncation).
func (ts *TicketStore) Open(ticket []byte) (psk []byte, kemName string, err error) {
	psk, kemName, err = ts.open(ticket)
	// Tickets sealed by a peer store carry an arbitrary shard byte; reduce
	// it so any input lands on a counter.
	sh := &ts.shards[0]
	if len(ticket) > 4 {
		sh = &ts.shards[uint32(ticket[4])%ticketShards]
	}
	if err != nil {
		sh.rejected.Add(1)
	} else {
		sh.redeemed.Add(1)
	}
	return psk, kemName, err
}

func (ts *TicketStore) open(ticket []byte) (psk []byte, kemName string, err error) {
	s := wire.String(ticket)
	var nonce []byte
	if !s.ReadBytes(&nonce, ticketNonceSize) {
		return nil, "", alertf(AlertDecodeError, "tls13: short ticket")
	}
	plain, err := ts.aead.Open(nil, nonce, s, nil)
	if err != nil {
		return nil, "", alertf(AlertDecryptError, "tls13: ticket decryption: %w", err)
	}
	return parseTicketState(plain)
}

// parseTicketState splits a decrypted ticket into its PSK and KEM name. The
// PSK aliases plain, which each Open decrypts into a fresh buffer.
func parseTicketState(plain []byte) (psk []byte, kemName string, err error) {
	s := wire.String(plain)
	var p, name wire.String
	if !s.ReadUint8LengthPrefixed(&p) || !s.ReadUint8LengthPrefixed(&name) || !s.Empty() {
		return nil, "", alertf(AlertDecodeError, "tls13: malformed ticket state")
	}
	return p, string(name), nil
}

// TicketStats is a point-in-time view of a store's counters.
type TicketStats struct {
	Issued   uint64 // tickets sealed into NewSessionTicket flights
	Redeemed uint64 // presented tickets that decrypted and parsed
	Rejected uint64 // presented tickets that failed to open
}

// Stats sums the shard counters. The snapshot is not atomic across fields —
// a Seal racing the sum may appear in Issued only — which is the usual
// monotonic-counter contract.
func (ts *TicketStore) Stats() TicketStats {
	var st TicketStats
	for i := range ts.shards {
		st.Issued += ts.shards[i].issued.Load()
		st.Redeemed += ts.shards[i].redeemed.Load()
		st.Rejected += ts.shards[i].rejected.Load()
	}
	return st
}

// errNoTicketStore is returned when a PSK arrives but the server has no
// Tickets store.
var errNoTicketStore = errors.New("tls13: client offered PSK but server has no ticket store")
