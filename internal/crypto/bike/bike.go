// Package bike implements the BIKE QC-MDPC key-encapsulation mechanism
// (round-4 candidate benchmarked by the paper as bikel1/bikel3): sparse
// private parity checks, a dense public ratio h = h1 * h0^-1, sparse-error
// encapsulation, and a Black-Gray-Flip style bit-flipping decoder.
package bike

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"pqtls/internal/crypto/gf2x"
	"pqtls/internal/crypto/sha3"
)

// Params describes one BIKE parameter set.
type Params struct {
	Name string
	R    int // ring size (block length)
	W    int // total private key weight (|h0| + |h1|)
	T    int // error weight
	// Affine threshold function coefficients for the bit-flipping decoder:
	// th(S) = max(ceil(ThA*S + ThB), ThMin).
	ThA   float64
	ThB   float64
	ThMin int
}

// The two parameter sets benchmarked by the paper (level 5 BIKE is not in
// the paper's tables).
var (
	BikeL1 = &Params{Name: "bikel1", R: 12323, W: 142, T: 134,
		ThA: 0.0069722, ThB: 13.530, ThMin: 36}
	BikeL3 = &Params{Name: "bikel3", R: 24659, W: 206, T: 199,
		ThA: 0.005265, ThB: 15.2588, ThMin: 52}
)

const sharedSecretSize = 32

// PublicKeySize returns the public-key length in bytes (one ring element).
func (p *Params) PublicKeySize() int { return (p.R + 7) / 8 }

// CiphertextSize returns the ciphertext length (ring element + 32-byte c1).
func (p *Params) CiphertextSize() int { return (p.R+7)/8 + 32 }

// SharedSecretSize is the shared-secret length in bytes.
func (p *Params) SharedSecretSize() int { return sharedSecretSize }

// PrivateKeySize returns the serialized private-key length: the two sparse
// supports as 4-byte positions plus the 32-byte implicit-rejection seed and
// the public key (needed for re-encapsulation).
func (p *Params) PrivateKeySize() int { return 4*p.W + 32 + p.PublicKeySize() }

// GenerateKey creates a key pair. Key generation inverts h0 in the
// quasi-cyclic ring, which is the dominant cost of a BIKE handshake.
func (p *Params) GenerateKey(rng io.Reader) (pk, sk []byte, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	for {
		h0sup, err := gf2x.RandomSupport(rng, p.R, p.W/2)
		if err != nil {
			return nil, nil, fmt.Errorf("bike: sampling h0: %w", err)
		}
		h1sup, err := gf2x.RandomSupport(rng, p.R, p.W/2)
		if err != nil {
			return nil, nil, fmt.Errorf("bike: sampling h1: %w", err)
		}
		h0 := gf2x.New(p.R)
		for _, pos := range h0sup {
			h0.SetBit(pos)
		}
		h0inv, ok := h0.Inverse()
		if !ok {
			continue // odd weight makes this effectively unreachable
		}
		// h = h1 * h0^-1 (dense * sparse).
		h := gf2x.New(p.R)
		h0inv.MulSparse(h, h1sup)

		var sigma [32]byte
		if _, err := io.ReadFull(rng, sigma[:]); err != nil {
			return nil, nil, fmt.Errorf("bike: sampling sigma: %w", err)
		}
		pk = h.Bytes()
		sk = make([]byte, 0, p.PrivateKeySize())
		for _, pos := range append(append([]int{}, h0sup...), h1sup...) {
			sk = append(sk, byte(pos), byte(pos>>8), byte(pos>>16), byte(pos>>24))
		}
		sk = append(sk, sigma[:]...)
		sk = append(sk, pk...)
		return pk, sk, nil
	}
}

// deriveErrors expands the 32-byte message m into the sparse error vector
// (e0, e1) of total weight T.
func (p *Params) deriveErrors(m []byte) (e0, e1 []int) {
	x := sha3.NewShake256()
	defer sha3.PutXOF(x)
	x.Write([]byte("BIKE-H"))
	x.Write(m)
	sup, err := gf2x.RandomSupport(x, 2*p.R, p.T)
	if err != nil {
		panic("bike: XOF cannot fail: " + err.Error())
	}
	for _, pos := range sup {
		if pos < p.R {
			e0 = append(e0, pos)
		} else {
			e1 = append(e1, pos-p.R)
		}
	}
	return e0, e1
}

// hashL computes L(e0, e1), the 32-byte mask applied to the message.
func (p *Params) hashL(e0, e1 *gf2x.Poly) [32]byte {
	var out [32]byte
	copy(out[:], sha3.ShakeSum256(32, []byte("BIKE-L"), e0.Bytes(), e1.Bytes()))
	return out
}

// hashK derives the shared secret from (m, c0, c1).
func (p *Params) hashK(m, c0, c1 []byte) []byte {
	return sha3.ShakeSum256(sharedSecretSize, []byte("BIKE-K"), m, c0, c1)
}

// Encapsulate generates a shared secret and ciphertext against pk.
func (p *Params) Encapsulate(rng io.Reader, pk []byte) (ct, ss []byte, err error) {
	if len(pk) != p.PublicKeySize() {
		return nil, nil, fmt.Errorf("bike: public key is %d bytes, want %d", len(pk), p.PublicKeySize())
	}
	if rng == nil {
		rng = rand.Reader
	}
	var m [32]byte
	if _, err := io.ReadFull(rng, m[:]); err != nil {
		return nil, nil, fmt.Errorf("bike: reading message: %w", err)
	}
	h := gf2x.FromBytes(pk, p.R)
	e0sup, e1sup := p.deriveErrors(m[:])
	e0 := polyFromSupport(p.R, e0sup)
	e1 := polyFromSupport(p.R, e1sup)

	// c0 = e0 + e1 * h.
	c0 := gf2x.New(p.R)
	h.MulSparse(c0, e1sup)
	c0.Xor(e0)

	mask := p.hashL(e0, e1)
	c1 := make([]byte, 32)
	for i := range c1 {
		c1[i] = m[i] ^ mask[i]
	}
	ct = append(c0.Bytes(), c1...)
	return ct, p.hashK(m[:], c0.Bytes(), c1), nil
}

func polyFromSupport(r int, support []int) *gf2x.Poly {
	p := gf2x.New(r)
	for _, pos := range support {
		p.SetBit(pos)
	}
	return p
}

// Decapsulate recovers the shared secret, running the BGF decoder on the
// private syndrome. Decoding failures and re-encapsulation mismatches take
// the implicit-rejection path.
func (p *Params) Decapsulate(sk, ct []byte) ([]byte, error) {
	if len(sk) != p.PrivateKeySize() {
		return nil, fmt.Errorf("bike: private key is %d bytes, want %d", len(sk), p.PrivateKeySize())
	}
	if len(ct) != p.CiphertextSize() {
		return nil, fmt.Errorf("bike: ciphertext is %d bytes, want %d", len(ct), p.CiphertextSize())
	}
	h0sup := make([]int, p.W/2)
	h1sup := make([]int, p.W/2)
	for i := range h0sup {
		h0sup[i] = int(uint32(sk[4*i]) | uint32(sk[4*i+1])<<8 | uint32(sk[4*i+2])<<16 | uint32(sk[4*i+3])<<24)
	}
	for i := range h1sup {
		j := 4 * (p.W / 2)
		h1sup[i] = int(uint32(sk[j+4*i]) | uint32(sk[j+4*i+1])<<8 | uint32(sk[j+4*i+2])<<16 | uint32(sk[j+4*i+3])<<24)
	}
	sigma := sk[4*p.W : 4*p.W+32]

	c0bytes := ct[:p.PublicKeySize()]
	c1 := ct[p.PublicKeySize():]
	c0 := gf2x.FromBytes(c0bytes, p.R)

	// Private syndrome s = c0 * h0 = e0*h0 + e1*h1.
	s := gf2x.New(p.R)
	c0.MulSparse(s, h0sup)

	e0, e1, ok := p.decode(s, h0sup, h1sup)
	var m []byte
	if ok {
		mask := p.hashL(e0, e1)
		m = make([]byte, 32)
		for i := range m {
			m[i] = c1[i] ^ mask[i]
		}
		// Fujisaki-Okamoto check: the errors must re-derive from m.
		d0, d1 := p.deriveErrors(m)
		if !e0.Equal(polyFromSupport(p.R, d0)) || !e1.Equal(polyFromSupport(p.R, d1)) {
			ok = false
		}
	}
	if !ok {
		// Implicit rejection: K = hash(sigma, c0, c1).
		return p.hashK(sigma, c0bytes, c1), nil
	}
	return p.hashK(m, c0bytes, c1), nil
}

// decode runs an iterative bit-flipping decoder with the BGF affine
// threshold, recovering (e0, e1) from the syndrome s.
func (p *Params) decode(s *gf2x.Poly, h0sup, h1sup []int) (e0, e1 *gf2x.Poly, ok bool) {
	e0 = gf2x.New(p.R)
	e1 = gf2x.New(p.R)
	syn := s.Clone()

	const maxIter = 30
	stuck := 0
	for iter := 0; iter < maxIter; iter++ {
		if syn.IsZero() {
			return e0, e1, true
		}
		sw := syn.Weight()
		th := int(p.ThA*float64(sw) + p.ThB + 0.999999)
		// After an unproductive iteration, relax the threshold toward the
		// majority floor so residual errors can still be cleared.
		th -= stuck
		if th < p.ThMin {
			th = p.ThMin
		}
		flipped := false
		for half, hsup := range [2][]int{h0sup, h1sup} {
			e := e0
			if half == 1 {
				e = e1
			}
			for j := 0; j < p.R; j++ {
				// Counter: unsatisfied parity checks touching position j.
				ctr := 0
				for _, pos := range hsup {
					idx := pos + j
					if idx >= p.R {
						idx -= p.R
					}
					ctr += syn.Bit(idx)
				}
				if ctr >= th {
					e.FlipBit(j)
					flipped = true
					// Update the syndrome in place.
					for _, pos := range hsup {
						idx := pos + j
						if idx >= p.R {
							idx -= p.R
						}
						syn.FlipBit(idx)
					}
				}
			}
		}
		if flipped {
			stuck = 0
		} else {
			stuck++
			if th == p.ThMin {
				break // stuck at the majority floor: give up
			}
		}
	}
	if syn.IsZero() {
		return e0, e1, true
	}
	return nil, nil, false
}

// Equal is a helper for tests comparing serialized keys.
func Equal(a, b []byte) bool { return bytes.Equal(a, b) }

// ErrDecodeFailure reports a decoding failure (only surfaced by tests; the
// KEM itself uses implicit rejection).
var ErrDecodeFailure = errors.New("bike: decoding failure")
