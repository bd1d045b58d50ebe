// Package drbg is the module's one deterministic random-byte stream,
// SHA-256 in counter mode. The harness seeds every simulated handshake and
// credential chain from it, the classical signature schemes derive nonces
// and salts from it, and the KAT tests use it as NIST's randombytes(), so a
// campaign, a trace or a capture is a pure function of its seed. It is not a
// production DRBG: the simulator holds no real secrets.
package drbg

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/big"
)

// Reader is SHA-256(seed ‖ counter) for counter = 0, 1, 2, …, with the
// counter as 8 big-endian bytes.
type Reader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

// New returns the stream keyed by seed.
func New(seed [32]byte) *Reader { return &Reader{seed: seed} }

// Derive returns the stream keyed by SHA-256 of the label followed by each
// part with an 8-byte big-endian length prefix (the prefixes keep distinct
// part boundaries from colliding). With no parts it is keyed by SHA-256 of
// the label alone.
func Derive(label string, parts ...[]byte) *Reader {
	h := sha256.New()
	h.Write([]byte(label))
	for _, p := range parts {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var seed [32]byte
	h.Sum(seed[:0])
	return New(seed)
}

// Read fills p from the stream; it never fails.
func (d *Reader) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		var block [40]byte
		copy(block[:32], d.seed[:])
		binary.BigEndian.PutUint64(block[32:], d.ctr)
		d.ctr++
		sum := sha256.Sum256(block[:])
		d.buf = append(d.buf, sum[:]...)
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// Scalar draws an integer in [1, n-1], reading exactly len(n)+8 bytes from
// rng and reducing them mod n-1 (the eight extra bytes make the bias
// negligible). It replaces the stdlib ECDH/ECDSA generators, which read a
// byte of the stream at random (randutil.MaybeReadByte).
func Scalar(rng io.Reader, n *big.Int) (*big.Int, error) {
	buf := make([]byte, (n.BitLen()+7)/8+8)
	if _, err := io.ReadFull(rng, buf); err != nil {
		return nil, err
	}
	k := new(big.Int).SetBytes(buf)
	k.Mod(k, new(big.Int).Sub(n, big.NewInt(1)))
	return k.Add(k, big.NewInt(1)), nil
}
