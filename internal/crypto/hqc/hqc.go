// Package hqc implements the HQC key-encapsulation mechanism (round-4
// candidate benchmarked by the paper as hqc128/192/256): quasi-cyclic
// arithmetic over GF(2)[x]/(x^n - 1) with the concatenated
// Reed-Muller/Reed-Solomon code removing the decryption noise, and an
// FO transform with implicit rejection.
//
// The dominant cost — sparse-by-dense n-bit ring products — and all wire
// sizes match the specification exactly.
package hqc

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"sync"

	"pqtls/internal/crypto/gf2x"
	"pqtls/internal/crypto/sha3"
)

// Params describes one HQC parameter set.
type Params struct {
	Name string
	N    int // ring size in bits (prime, > N1*Mult*128)
	W    int // secret vector weight (x, y)
	Wr   int // encryption vector weight (r1, r2, e)
	K    int // message bytes (RS dimension)
	N1   int // RS code length in symbols
	Mult int // Reed-Muller duplication factor

	codeOnce sync.Once
	code     *concatCode
}

// The three parameter sets benchmarked by the paper.
var (
	HQC128 = &Params{Name: "hqc128", N: 17669, W: 66, Wr: 75, K: 16, N1: 46, Mult: 3}
	HQC192 = &Params{Name: "hqc192", N: 35851, W: 100, Wr: 114, K: 24, N1: 56, Mult: 5}
	HQC256 = &Params{Name: "hqc256", N: 57637, W: 131, Wr: 149, K: 32, N1: 90, Mult: 5}
)

const (
	seedSize         = 40 // public seed for h, as in the spec
	saltSize         = 64 // d = SHA3-512(m) carried in the ciphertext
	sharedSecretSize = 64
)

func (p *Params) concat() *concatCode {
	p.codeOnce.Do(func() {
		p.code = &concatCode{rs: newRS(p.N1, p.K), mult: p.Mult}
	})
	return p.code
}

// vBytes is the payload (v) length: n1*n2 bits.
func (p *Params) vBytes() int { return p.N1 * p.Mult * rmBits / 8 }

// PublicKeySize returns the public-key length: seed || s.
func (p *Params) PublicKeySize() int { return seedSize + (p.N+7)/8 }

// CiphertextSize returns the ciphertext length: u || v || d.
func (p *Params) CiphertextSize() int { return (p.N+7)/8 + p.vBytes() + saltSize }

// SharedSecretSize is the shared-secret length in bytes.
func (p *Params) SharedSecretSize() int { return sharedSecretSize }

// PrivateKeySize returns the private-key length: x and y supports, the
// implicit-rejection seed, and the public key.
func (p *Params) PrivateKeySize() int { return 8*p.W + 32 + p.PublicKeySize() }

// expandH derives the dense public ring element h from the 40-byte seed.
func (p *Params) expandH(seed []byte) *gf2x.Poly {
	x := sha3.NewShake256()
	defer sha3.PutXOF(x)
	x.Write([]byte("HQC-H"))
	x.Write(seed)
	buf := make([]byte, (p.N+7)/8)
	x.Read(buf)
	return gf2x.FromBytes(buf, p.N)
}

// GenerateKey creates a key pair from rng (crypto/rand if nil).
func (p *Params) GenerateKey(rng io.Reader) (pk, sk []byte, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	seed := make([]byte, seedSize)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return nil, nil, fmt.Errorf("hqc: reading seed: %w", err)
	}
	h := p.expandH(seed)
	xsup, err := gf2x.RandomSupport(rng, p.N, p.W)
	if err != nil {
		return nil, nil, fmt.Errorf("hqc: sampling x: %w", err)
	}
	ysup, err := gf2x.RandomSupport(rng, p.N, p.W)
	if err != nil {
		return nil, nil, fmt.Errorf("hqc: sampling y: %w", err)
	}
	var sigma [32]byte
	if _, err := io.ReadFull(rng, sigma[:]); err != nil {
		return nil, nil, fmt.Errorf("hqc: sampling sigma: %w", err)
	}
	// s = x + h*y.
	s := gf2x.New(p.N)
	h.MulSparse(s, ysup)
	for _, pos := range xsup {
		s.FlipBit(pos)
	}

	pk = append(append([]byte{}, seed...), s.Bytes()...)
	sk = make([]byte, 0, p.PrivateKeySize())
	for _, pos := range append(append([]int{}, xsup...), ysup...) {
		sk = append(sk, byte(pos), byte(pos>>8), byte(pos>>16), byte(pos>>24))
	}
	sk = append(sk, sigma[:]...)
	sk = append(sk, pk...)
	return pk, sk, nil
}

// deriveVectors expands theta into the three sparse encryption vectors.
func (p *Params) deriveVectors(theta []byte) (r1, r2, e []int) {
	sample := func(label string) []int {
		x := sha3.NewShake256()
		defer sha3.PutXOF(x)
		x.Write([]byte(label))
		x.Write(theta)
		sup, err := gf2x.RandomSupport(x, p.N, p.Wr)
		if err != nil {
			panic("hqc: XOF cannot fail: " + err.Error())
		}
		return sup
	}
	return sample("HQC-R1"), sample("HQC-R2"), sample("HQC-E")
}

// pkeEncrypt is the deterministic inner encryption with randomness theta.
func (p *Params) pkeEncrypt(pk, m, theta []byte) (u *gf2x.Poly, v []byte) {
	h := p.expandH(pk[:seedSize])
	s := gf2x.FromBytes(pk[seedSize:], p.N)
	r1sup, r2sup, esup := p.deriveVectors(theta)

	// u = r1 + h*r2.
	u = gf2x.New(p.N)
	h.MulSparse(u, r2sup)
	for _, pos := range r1sup {
		u.FlipBit(pos)
	}
	// v = truncate(mG + s*r2 + e).
	noise := gf2x.New(p.N)
	s.MulSparse(noise, r2sup)
	for _, pos := range esup {
		noise.FlipBit(pos)
	}
	v = p.concat().encode(m)
	noiseBytes := noise.Bytes()
	for i := range v {
		v[i] ^= noiseBytes[i]
	}
	return u, v
}

// Encapsulate generates a shared secret and ciphertext against pk.
func (p *Params) Encapsulate(rng io.Reader, pk []byte) (ct, ss []byte, err error) {
	if len(pk) != p.PublicKeySize() {
		return nil, nil, fmt.Errorf("hqc: public key is %d bytes, want %d", len(pk), p.PublicKeySize())
	}
	if rng == nil {
		rng = rand.Reader
	}
	m := make([]byte, p.K)
	if _, err := io.ReadFull(rng, m); err != nil {
		return nil, nil, fmt.Errorf("hqc: reading message: %w", err)
	}
	theta := sha3.ShakeSum256(64, []byte("HQC-THETA"), m, pk[:seedSize])
	u, v := p.pkeEncrypt(pk, m, theta)
	d := sha3.Sum512(m)

	ct = make([]byte, 0, p.CiphertextSize())
	ct = append(ct, u.Bytes()...)
	ct = append(ct, v...)
	ct = append(ct, d[:]...)
	return ct, p.sharedKey(m, ct), nil
}

func (p *Params) sharedKey(m, ct []byte) []byte {
	return sha3.ShakeSum256(sharedSecretSize, []byte("HQC-K"), m, ct)
}

// Decapsulate recovers the shared secret: the RMRS decoder removes the
// noise term x*r2 + r1*y + e, and the FO re-encryption check routes
// malformed ciphertexts to implicit rejection.
func (p *Params) Decapsulate(sk, ct []byte) ([]byte, error) {
	if len(sk) != p.PrivateKeySize() {
		return nil, fmt.Errorf("hqc: private key is %d bytes, want %d", len(sk), p.PrivateKeySize())
	}
	if len(ct) != p.CiphertextSize() {
		return nil, fmt.Errorf("hqc: ciphertext is %d bytes, want %d", len(ct), p.CiphertextSize())
	}
	ysup := make([]int, p.W)
	for i := range ysup {
		j := 4 * (p.W + i) // y follows x in the serialized supports
		ysup[i] = int(uint32(sk[j]) | uint32(sk[j+1])<<8 | uint32(sk[j+2])<<16 | uint32(sk[j+3])<<24)
	}
	sigma := sk[8*p.W : 8*p.W+32]
	pk := sk[8*p.W+32:]

	uLen := (p.N + 7) / 8
	u := gf2x.FromBytes(ct[:uLen], p.N)
	v := ct[uLen : uLen+p.vBytes()]
	d := ct[uLen+p.vBytes():]

	// v - truncate(u*y) = mG + x*r2 + r1*y + e.
	uy := gf2x.New(p.N)
	u.MulSparse(uy, ysup)
	uyBytes := uy.Bytes()
	noisy := make([]byte, len(v))
	for i := range noisy {
		noisy[i] = v[i] ^ uyBytes[i]
	}
	m, ok := p.concat().decode(noisy)
	if ok {
		// FO check: deterministic re-encryption must reproduce (u, v) and
		// the d hash must match.
		theta := sha3.ShakeSum256(64, []byte("HQC-THETA"), m, pk[:seedSize])
		u2, v2 := p.pkeEncrypt(pk, m, theta)
		wantD := sha3.Sum512(m)
		if !u2.Equal(u) || !bytes.Equal(v2, v) || !bytes.Equal(d, wantD[:]) {
			ok = false
		}
	}
	if !ok {
		return p.sharedKey(sigma, ct), nil
	}
	return p.sharedKey(m, ct), nil
}
