// Package sha3 adapts the standard library's crypto/sha3 (FIPS 202, with
// its assembly Keccak-f where the platform has one) to the call shapes the
// PQ kernels in this repository use.
//
// Every lattice- and hash-based scheme here (Kyber, Dilithium, SPHINCS+, the
// Falcon-shaped signature, HQC, BIKE) is SHAKE-bound and hashes short
// concatenations inside hot sampling loops. This package adds only what the
// stdlib API lacks for that: variadic inputs (no concatenation buffer),
// one-shots that write into a caller's buffer, and sync.Pool-recycled
// states so none of it allocates. There is no Keccak permutation here; the
// test file keeps a readable one as the differential oracle.
package sha3

import (
	"crypto/sha3"
	"sync"
)

// XOF is a pooled SHAKE state: absorb with Write, squeeze with Read. Write
// after Read panics, as in crypto/sha3.
//
// NewShake128/NewShake256 return this concrete type rather than an
// interface on purpose: called through an interface, the small stack arrays
// the kernels pass to Write (matrix positions, nonces) escape to the heap.
type XOF struct {
	*sha3.SHAKE
	pool *sync.Pool // where PutXOF returns the state
}

var (
	shake128Pool = sync.Pool{New: func() any { return &XOF{SHAKE: sha3.NewSHAKE128()} }}
	shake256Pool = sync.Pool{New: func() any { return &XOF{SHAKE: sha3.NewSHAKE256()} }}
	hash256Pool  = sync.Pool{New: func() any { return sha3.New256() }}
	hash512Pool  = sync.Pool{New: func() any { return sha3.New512() }}
)

func newShake(pool *sync.Pool) *XOF {
	x := pool.Get().(*XOF)
	x.pool = pool
	x.Reset()
	return x
}

// NewShake128 returns a SHAKE128 XOF (rate 168) in its initial state. The
// state comes from an internal pool; hand it back with PutXOF when finished
// to make the next NewShake128 call allocation-free.
func NewShake128() *XOF { return newShake(&shake128Pool) }

// NewShake256 returns a SHAKE256 XOF (rate 136). See NewShake128 for the
// pooling contract.
func NewShake256() *XOF { return newShake(&shake256Pool) }

// PutXOF returns an XOF obtained from NewShake128/NewShake256 to its pool.
// It accepts any value so call sites that only hold an io.Reader can
// release their stream without a type switch; values of other types are
// ignored. The XOF must not be used after PutXOF.
func PutXOF(x any) {
	if s, ok := x.(*XOF); ok {
		s.pool.Put(s)
	}
}

// shakeInto absorbs the concatenation of data and squeezes len(dst) bytes.
func shakeInto(pool *sync.Pool, dst []byte, data [][]byte) {
	x := newShake(pool)
	for _, d := range data {
		x.Write(d)
	}
	x.Read(dst)
	pool.Put(x)
}

// hashInto writes the fixed-size digest of the concatenation of data to the
// front of dst, which must be at least that long.
func hashInto(pool *sync.Pool, dst []byte, data [][]byte) {
	h := pool.Get().(*sha3.SHA3)
	h.Reset()
	for _, d := range data {
		h.Write(d)
	}
	h.Sum(dst[:0])
	pool.Put(h)
}

// Sum256 computes SHA3-256 over the concatenation of data.
func Sum256(data ...[]byte) [32]byte {
	var out [32]byte
	hashInto(&hash256Pool, out[:], data)
	return out
}

// Sum512 computes SHA3-512 over the concatenation of data.
func Sum512(data ...[]byte) [64]byte {
	var out [64]byte
	hashInto(&hash512Pool, out[:], data)
	return out
}

// Sum256Into computes SHA3-256 over the concatenation of data into dst
// (32 bytes) without allocating. dst may alias an input.
func Sum256Into(dst []byte, data ...[]byte) { hashInto(&hash256Pool, dst, data) }

// Sum512Into computes SHA3-512 over the concatenation of data into dst
// (64 bytes) without allocating. dst may alias an input.
func Sum512Into(dst []byte, data ...[]byte) { hashInto(&hash512Pool, dst, data) }

// ShakeSum128Into squeezes len(dst) bytes of SHAKE128 over the
// concatenation of data into dst without allocating.
func ShakeSum128Into(dst []byte, data ...[]byte) { shakeInto(&shake128Pool, dst, data) }

// ShakeSum256Into squeezes len(dst) bytes of SHAKE256 over the
// concatenation of data into dst without allocating.
func ShakeSum256Into(dst []byte, data ...[]byte) { shakeInto(&shake256Pool, dst, data) }

// ShakeSum128 squeezes size bytes of SHAKE128 over the concatenation of data.
func ShakeSum128(size int, data ...[]byte) []byte {
	out := make([]byte, size)
	shakeInto(&shake128Pool, out, data)
	return out
}

// ShakeSum256 squeezes size bytes of SHAKE256 over the concatenation of data.
func ShakeSum256(size int, data ...[]byte) []byte {
	out := make([]byte, size)
	shakeInto(&shake256Pool, out, data)
	return out
}
