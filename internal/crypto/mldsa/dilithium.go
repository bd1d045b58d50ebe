package mldsa

import (
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"

	"pqtls/internal/crypto/sha3"
)

// Params describes one Dilithium parameter set.
type Params struct {
	Name       string
	K, L       int   // matrix dimensions
	Eta        int32 // secret coefficient range
	Tau        int   // challenge weight
	Beta       int32 // tau * eta
	Gamma1     int32 // mask range
	Gamma1Bits uint  // bits per packed z coefficient
	Gamma2     int32 // low-order rounding range
	Omega      int   // maximum hint weight
	W1Bits     uint  // bits per packed w1 coefficient
	exp        expander
}

// The six parameter sets benchmarked by the paper.
var (
	Dilithium2 = &Params{Name: "dilithium2", K: 4, L: 4, Eta: 2, Tau: 39, Beta: 78,
		Gamma1: 1 << 17, Gamma1Bits: 18, Gamma2: (Q - 1) / 88, Omega: 80, W1Bits: 6, exp: shakeExpander{}}
	Dilithium3 = &Params{Name: "dilithium3", K: 6, L: 5, Eta: 4, Tau: 49, Beta: 196,
		Gamma1: 1 << 19, Gamma1Bits: 20, Gamma2: (Q - 1) / 32, Omega: 55, W1Bits: 4, exp: shakeExpander{}}
	Dilithium5 = &Params{Name: "dilithium5", K: 8, L: 7, Eta: 2, Tau: 60, Beta: 120,
		Gamma1: 1 << 19, Gamma1Bits: 20, Gamma2: (Q - 1) / 32, Omega: 75, W1Bits: 4, exp: shakeExpander{}}
	Dilithium2AES = aesVariant(Dilithium2, "dilithium2_aes")
	Dilithium3AES = aesVariant(Dilithium3, "dilithium3_aes")
	Dilithium5AES = aesVariant(Dilithium5, "dilithium5_aes")
)

func aesVariant(p *Params, name string) *Params {
	v := *p
	v.Name = name
	v.exp = aesExpander{}
	return &v
}

func (p *Params) etaBits() uint {
	if p.Eta == 2 {
		return 3
	}
	return 4
}

// PublicKeySize returns the public-key length (rho || t1).
func (p *Params) PublicKeySize() int { return 32 + p.K*320 }

// PrivateKeySize returns the private-key length.
func (p *Params) PrivateKeySize() int {
	return 32 + 32 + 32 + (p.K+p.L)*N*int(p.etaBits())/8 + p.K*416
}

// SignatureSize returns the signature length (c-tilde || z || hints).
func (p *Params) SignatureSize() int {
	return 32 + p.L*N*int(p.Gamma1Bits)/8 + p.Omega + p.K
}

// GenerateKey creates a key pair from rng (crypto/rand if nil).
func (p *Params) GenerateKey(rng io.Reader) (pk, sk []byte, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	var zeta [32]byte
	if _, err := io.ReadFull(rng, zeta[:]); err != nil {
		return nil, nil, fmt.Errorf("mldsa: reading key seed: %w", err)
	}
	pk, sk = p.deriveKey(zeta)
	return pk, sk, nil
}

func (p *Params) deriveKey(zeta [32]byte) (pk, sk []byte) {
	seeds := sha3.ShakeSum256(128, zeta[:])
	rho, rhoPrime, key := seeds[:32], seeds[32:96], seeds[96:128]

	a := p.expandA(rho)
	smp := getSampleScratch()
	s1 := make([]poly, p.L)
	s2 := make([]poly, p.K)
	for i := range s1 {
		st := p.exp.Stream256(rhoPrime, uint16(i))
		sampleEta(&s1[i], st, p.Eta, &smp.eta)
		putStream(st)
	}
	for i := range s2 {
		st := p.exp.Stream256(rhoPrime, uint16(p.L+i))
		sampleEta(&s2[i], st, p.Eta, &smp.eta)
		putStream(st)
	}
	putSampleScratch(smp)

	// t = A*s1 + s2.
	s1Hat := make([]poly, p.L)
	for i := range s1Hat {
		s1Hat[i] = s1[i]
		s1Hat[i].ntt()
	}
	t1 := make([]poly, p.K)
	t0 := make([]poly, p.K)
	for i := 0; i < p.K; i++ {
		var t poly
		for j := 0; j < p.L; j++ {
			mulAcc(&t, &a[i*p.L+j], &s1Hat[j])
		}
		t.invNTT()
		t.add(&s2[i])
		for n := 0; n < N; n++ {
			hi, lo := power2Round(t[n])
			t1[i][n] = hi
			t0[i][n] = freduce(lo + Q)
		}
	}

	pk = make([]byte, 0, p.PublicKeySize())
	pk = append(pk, rho...)
	for i := range t1 {
		pk = packBitsInto(pk, &t1[i], 10, func(c int32) uint32 { return uint32(c) })
	}
	tr := sha3.ShakeSum256(32, pk)

	sk = make([]byte, 0, p.PrivateKeySize())
	sk = append(sk, rho...)
	sk = append(sk, key...)
	sk = append(sk, tr...)
	for i := range s1 {
		sk = append(sk, p.packEta(&s1[i])...)
	}
	for i := range s2 {
		sk = append(sk, p.packEta(&s2[i])...)
	}
	for i := range t0 {
		sk = packBitsInto(sk, &t0[i], 13, func(c int32) uint32 {
			return uint32(1<<(D-1) - centered(c))
		})
	}
	return pk, sk
}

func (p *Params) packEta(s *poly) []byte {
	eta := p.Eta
	return packBits(s, p.etaBits(), func(c int32) uint32 { return uint32(eta - centered(c)) })
}

func (p *Params) unpackEta(s *poly, in []byte) {
	eta := p.Eta
	unpackBits(s, in, p.etaBits(), func(t uint32) int32 { return freduce(eta - int32(t) + Q) })
}

// expandA derives the K×L matrix in the NTT domain, one expansion stream
// per element.
func (p *Params) expandA(rho []byte) []poly {
	a := make([]poly, p.K*p.L)
	smp := getSampleScratch()
	defer putSampleScratch(smp)
	for i := 0; i < p.K; i++ {
		for j := 0; j < p.L; j++ {
			st := p.exp.Stream128(rho, uint16(i<<8|j))
			sampleUniform(&a[i*p.L+j], st, &smp.uni)
			putStream(st)
		}
	}
	return a
}

// Sign produces a deterministic signature over msg. Callers signing many
// messages under one key should build a SigningKey once instead — it hoists
// the matrix expansion and the secret-vector NTTs out of the per-signature
// cost.
func (p *Params) Sign(sk, msg []byte) ([]byte, error) {
	k, err := p.NewSigningKey(sk)
	if err != nil {
		return nil, err
	}
	return k.Sign(msg)
}

// sign runs the deterministic rejection loop against the precomputed key.
// All scratch comes from a pool shared across keys, so one SigningKey can
// sign concurrently and the only per-call allocation is the returned
// signature.
func (k *SigningKey) sign(msg []byte) ([]byte, error) {
	p := k.p
	aMont, s1Hat, s2Hat, t0Hat := k.aMont, k.s1Hat, k.s2Hat, k.t0Hat
	s := getSignScratch()
	defer putSignScratch(s)
	mu, rhoPrime := s.mu[:], s.rhoPrime[:]
	sha3.ShakeSum256Into(mu, k.tr[:], msg)
	sha3.ShakeSum256Into(rhoPrime, k.key[:], mu)

	// Rejection-loop scratch, borrowed from the pool: each iteration
	// re-derives or zeroes what it needs.
	y := s.y[:p.L]
	yHat := s.yHat[:p.L]
	w := s.w[:p.K]
	w1 := s.w1[:p.K]
	z := s.z[:p.L]
	hints := s.hints[:p.K]
	w1Packed := s.w1Packed[:0]
	for kappa := uint16(0); ; kappa += uint16(p.L) {
		// Sample the mask vector y and compute w = A*y.
		for i := range y {
			st := p.exp.Stream256(rhoPrime, kappa+uint16(i))
			sampleMask(&y[i], st, p.Gamma1, p.Gamma1Bits, &s.smp.mask)
			putStream(st)
			yHat[i] = y[i]
			yHat[i].ntt()
		}
		w1Packed = w1Packed[:0]
		for i := 0; i < p.K; i++ {
			polyDotMont(&w[i], aMont[i*p.L:(i+1)*p.L], yHat)
			w[i].invNTT()
			for n := 0; n < N; n++ {
				w1[i][n] = highBits(w[i][n], p.Gamma2)
			}
			w1Packed = packBitsInto(w1Packed, &w1[i], p.W1Bits, func(c int32) uint32 { return uint32(c) })
		}
		cTilde := s.cTilde[:]
		sha3.ShakeSum256Into(cTilde, mu, w1Packed)
		var c poly
		sampleInBallInto(&c, cTilde, p.Tau, &s.smp.ball)
		cHat := c
		cHat.ntt()
		// One Montgomery lift of c per iteration pays for every c·{s1,s2,t0}
		// product below via the cheaper montReduce pointwise multiply.
		cHatMont := cHat
		cHatMont.toMont()

		// z = y + c*s1, rejected if too large.
		ok := true
		for i := range z {
			var cs1 poly
			polyMulMont(&cs1, &cHatMont, &s1Hat[i])
			cs1.invNTT()
			z[i] = y[i]
			z[i].add(&cs1)
			if z[i].normExceeds(p.Gamma1 - p.Beta) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}

		// Check the low bits of w - c*s2 on every row first, in FIPS 204
		// order: c*t0 and the hints are only computed by the iteration
		// that passes. w[i] holds w - c*s2 from here on.
		for i := 0; i < p.K && ok; i++ {
			var cs2 poly
			polyMulMont(&cs2, &cHatMont, &s2Hat[i])
			cs2.invNTT()
			w[i].sub(&cs2)
			for n := 0; n < N; n++ {
				_, r0 := decompose(w[i][n], p.Gamma2)
				if abs32(r0) >= p.Gamma2-p.Beta {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}

		// Build the hint of w - c*s2 against c*t0.
		hintCount := 0
		for i := 0; i < p.K; i++ {
			hints[i] = poly{}
			var ct0 poly
			polyMulMont(&ct0, &cHatMont, &t0Hat[i])
			ct0.invNTT()
			if ct0.normExceeds(p.Gamma2) {
				ok = false
				break
			}
			for n := 0; n < N; n++ {
				with := freduce(w[i][n] + ct0[n])
				if highBits(with, p.Gamma2) != highBits(w[i][n], p.Gamma2) {
					hints[i][n] = 1
					hintCount++
				}
			}
		}
		if !ok || hintCount > p.Omega {
			continue
		}

		sig := make([]byte, 0, p.SignatureSize())
		sig = append(sig, cTilde...)
		for i := range z {
			g1 := p.Gamma1
			sig = packBitsInto(sig, &z[i], p.Gamma1Bits, func(c int32) uint32 {
				return uint32(g1 - centered(c))
			})
		}
		sig = p.packHintsInto(sig, hints)
		return sig, nil
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// packHintsInto encodes hint positions into omega+K bytes appended to dst,
// which must have capacity for them (signature buffers are pre-sized).
func (p *Params) packHintsInto(dst []byte, h []poly) []byte {
	out := dst[len(dst) : len(dst)+p.Omega+p.K]
	for i := range out {
		out[i] = 0
	}
	idx := 0
	for i := range h {
		for n := 0; n < N; n++ {
			if h[i][n] != 0 {
				out[idx] = byte(n)
				idx++
			}
		}
		out[p.Omega+i] = byte(idx)
	}
	return dst[:len(dst)+p.Omega+p.K]
}

// unpackHintsInto decodes the hint section into the caller-lent h (length
// K, zeroed here), returning false on malformed input.
func (p *Params) unpackHintsInto(h []poly, in []byte) bool {
	for i := range h {
		h[i] = poly{}
	}
	idx := 0
	for i := 0; i < p.K; i++ {
		end := int(in[p.Omega+i])
		if end < idx || end > p.Omega {
			return false
		}
		prev := -1
		for ; idx < end; idx++ {
			pos := int(in[idx])
			if pos <= prev { // positions must strictly increase
				return false
			}
			prev = pos
			h[i][pos] = 1
		}
	}
	for ; idx < p.Omega; idx++ {
		if in[idx] != 0 { // unused slots must be zero
			return false
		}
	}
	return true
}

// Verify reports whether sig is a valid signature of msg under pk. Callers
// verifying many signatures under one key should build a VerifyKey once —
// it hoists the matrix expansion, the t1·2^D NTTs, and the public-key hash
// out of the per-verification cost.
func (p *Params) Verify(pk, msg, sig []byte) bool {
	k, err := p.NewVerifyKey(pk)
	if err != nil {
		return false
	}
	return k.Verify(msg, sig)
}

// verify checks one signature against the precomputed key. All scratch
// comes from a pool shared across keys, so one VerifyKey can verify
// concurrently and the call does not allocate.
func (k *VerifyKey) verify(msg, sig []byte) bool {
	s := getVerifyScratch()
	defer putVerifyScratch(s)
	p := k.p
	z := s.z[:p.L]
	hints := s.hints[:p.K]
	if !k.parseSignature(z, hints, sig) {
		return false
	}
	cTilde := sig[:32]
	sha3.ShakeSum256Into(s.mu[:], k.tr[:], msg)
	var c poly
	sampleInBallInto(&c, cTilde, p.Tau, &s.smp.ball)
	w1Packed := k.recomputeW1(s.w1Packed[:0], z, hints, &c)
	sha3.ShakeSum256Into(s.want[:], s.mu[:], w1Packed)
	return subtle.ConstantTimeCompare(cTilde, s.want[:]) == 1
}

// parseSignature unpacks z (with norm checks) and the hint vector into the
// caller-lent slices, reporting whether the signature is well-formed. On
// success z holds the response vector in the normal domain.
func (k *VerifyKey) parseSignature(z, hints []poly, sig []byte) bool {
	p := k.p
	if len(sig) != p.SignatureSize() {
		return false
	}
	zLen := N * int(p.Gamma1Bits) / 8
	g1 := p.Gamma1
	for i := range z {
		unpackBits(&z[i], sig[32+zLen*i:32+zLen*(i+1)], p.Gamma1Bits, func(t uint32) int32 {
			return freduce(g1 - int32(t) + Q)
		})
		if z[i].normExceeds(p.Gamma1 - p.Beta) {
			return false
		}
	}
	return p.unpackHintsInto(hints, sig[32+zLen*p.L:])
}

// recomputeW1 runs the verifier's lattice half: NTT z in place, compute
// each row of A·z − c·(t1·2^D), undo the hint, and append the packed w1
// to dst. The challenge c is consumed in the normal domain.
func (k *VerifyKey) recomputeW1(dst []byte, z, hints []poly, c *poly) []byte {
	p := k.p
	cHatMont := *c
	cHatMont.ntt()
	cHatMont.toMont()
	for i := range z {
		z[i].ntt()
	}
	for i := 0; i < p.K; i++ {
		var az poly
		polyDotMont(&az, k.aMont[i*p.L:(i+1)*p.L], z)
		// az - c * (t1 * 2^D), with NTT(t1 * 2^D) precomputed on the key.
		var ct1 poly
		polyMulMont(&ct1, &cHatMont, &k.t1ShiftHat[i])
		az.sub(&ct1)
		az.invNTT()
		var w1 poly
		for n := 0; n < N; n++ {
			w1[n] = useHint(hints[i][n], az[n], p.Gamma2)
		}
		dst = packBitsInto(dst, &w1, p.W1Bits, func(c int32) uint32 { return uint32(c) })
	}
	return dst
}

// ErrBadKey reports malformed key material.
var ErrBadKey = errors.New("mldsa: malformed key material")
