// Package mldsa implements the Dilithium signature scheme (round-3
// parameters, as benchmarked by the paper via liboqs) for security levels
// 2, 3 and 5 and the AES-sampled variants (dilithium*_aes).
package mldsa

const (
	// N is the polynomial degree of the ring Z_q[X]/(X^256+1).
	N = 256
	// Q is the Dilithium modulus.
	Q = 8380417
	// D is the number of bits dropped from the public vector t.
	D = 13
	// root is a primitive 512th root of unity mod Q.
	root = 1753
	// inv256 is 256^-1 mod Q, the inverse-NTT scaling factor.
	inv256 = 8347681
)

type poly [N]int32

// zetas[i] = root^bitrev8(i) mod Q. zetasMont holds the same roots scaled
// by the Montgomery radix (zetas[i]·2^32 mod Q), so montReduce(x·zetasMont[i])
// yields x·zetas[i] mod Q in the plain domain with one cheap reduction.
//
// zetasMontQinv[i] = zetasMont[i]·qInv mod 2^32 precomputes the low-half
// multiplier of montReduce per zeta: the AVX2 kernels get its
// t = int32(x·zetasMont[i])·qInv from the one product x·zetasMontQinv[i].
var (
	zetas         [N]int32
	zetasMont     [N]int32
	zetasMontQinv [N]int32
)

// qInv is q^-1 mod 2^32, the low-half multiplier of Montgomery reduction.
const qInv int32 = 58728449

// r2MontPoly holds 2^64 mod q in every coefficient: multiplying by it under
// montReduce lifts a plain residue into the Montgomery domain (a·2^32 mod
// q), so toMont is a pointwise Montgomery product. Filled in init.
var r2MontPoly poly

func init() {
	pow := func(b, e int64) int64 {
		r := int64(1)
		b %= Q
		for ; e > 0; e >>= 1 {
			if e&1 == 1 {
				r = r * b % Q
			}
			b = b * b % Q
		}
		return r
	}
	for i := 0; i < N; i++ {
		br := 0
		for b := 0; b < 8; b++ {
			br |= (i >> b & 1) << (7 - b)
		}
		zetas[i] = int32(pow(root, int64(br)))
		zetasMont[i] = int32(int64(zetas[i]) << 32 % Q)
		zetasMontQinv[i] = zetasMont[i] * qInv
	}
	r2 := int32(pow(2, 64))
	for i := range r2MontPoly {
		r2MontPoly[i] = r2
	}
	if int32(pow(256, Q-2)) != inv256 {
		panic("mldsa: inv256 constant is wrong")
	}
	qi, qq := uint32(qInv), uint32(Q)
	if qi*qq != 1 {
		panic("mldsa: qInv constant is wrong")
	}
}

// montReduce maps a ∈ (-q·2^31, q·2^31) to a·2^-32 mod q in (-q, q).
func montReduce(a int64) int32 {
	t := int32(a) * qInv
	return int32((a - int64(t)*Q) >> 32)
}

func fqmul(a, b int32) int32 {
	return int32(int64(a) * int64(b) % Q)
}

// freduce maps a to its canonical residue in [0, q), branch-free: the
// shift-based estimate t ≈ a/q (exact to ±1 for |a| ≤ 2^31 − 2^22, which
// covers every caller — the largest inputs are the lazy NTT's ≤ 9q
// magnitudes) leaves a centered remainder in (−q, q); the sign-mask add
// then lifts negatives. Division-free, so it stays cheap inside the
// per-coefficient loops the signing profile is dominated by.
func freduce(a int32) int32 {
	t := (a + (1 << 22)) >> 23
	a -= t * Q
	return a + (a>>31)&Q
}

// centered maps a residue in [0, Q) to its representative in (-Q/2, Q/2].
func centered(a int32) int32 {
	if a > Q/2 {
		return a - Q
	}
	return a
}

// ntt transforms p into the (complete, 8-layer) NTT domain, with canonical
// coefficients in bit-reversed zeta order.
func (p *poly) ntt() {
	if useAVX2 {
		nttAVX2(p, &zetasMont, &zetasMontQinv)
		return
	}
	p.nttGeneric()
}

// nttGeneric is the portable forward transform, and the oracle the vector
// kernel is tested against.
//
// Reductions are lazy: only the multiplied wing of each butterfly is
// reduced (Montgomery, via the radix-scaled zeta table), so magnitudes
// grow by at most q per layer and stay below 9q « 2^31 over the 8 layers.
// A final pass restores the canonical [0, q) form the serializers and
// rejection checks expect, keeping every output byte-identical to the
// eager version.
func (p *poly) nttGeneric() {
	k := 1
	for l := 128; l >= 1; l >>= 1 {
		for start := 0; start < N; start += 2 * l {
			zeta := int64(zetasMont[k])
			k++
			for j := start; j < start+l; j++ {
				t := montReduce(zeta * int64(p[j+l]))
				p[j+l] = p[j] - t
				p[j] += t
			}
		}
	}
	for i := range p {
		p[i] = freduce(p[i])
	}
}

// invNTT is the inverse transform: natural-order NTT-domain input,
// canonical plain-domain output.
func (p *poly) invNTT() {
	if useAVX2 {
		invNTTAVX2(p, &zetasMont, &zetasMontQinv)
		return
	}
	p.invNTTGeneric()
}

// invNTTGeneric is the portable inverse transform; same reflected-zeta
// trick as mlkem.
//
// Fully lazy Gentleman-Sande: the sum wing is never reduced mid-transform.
// Worst-case magnitude after the 8 doubling layers is 256·q =
// 2,145,386,752, which still fits int32, and the Montgomery inputs
// zeta·(sum difference) stay below q·2^31. The 256^-1 scaling is folded
// into one Montgomery multiply per coefficient.
func (p *poly) invNTTGeneric() {
	k := 255
	for l := 1; l <= 128; l <<= 1 {
		for start := 0; start < N; start += 2 * l {
			zeta := int64(zetasMont[k])
			k--
			for j := start; j < start+l; j++ {
				t := p[j]
				p[j] = t + p[j+l]
				p[j+l] = montReduce(zeta * int64(p[j+l]-t))
			}
		}
	}
	const fMont = int64(inv256) << 32 % Q
	for i := range p {
		p[i] = freduce(montReduce(fMont * int64(p[i])))
	}
}

// mulAcc accumulates the pointwise NTT-domain product a*b into r.
// Cold-path helper (keygen); the signing and verification loops use the
// Montgomery-domain variants below, which replace the int64 division in
// fqmul with a single montReduce per coefficient.
func mulAcc(r, a, b *poly) {
	for i := range r {
		r[i] = freduce(r[i] + fqmul(a[i], b[i]))
	}
}

// toMont lifts p into the Montgomery domain (p[i]·2^32 mod q). Inputs must
// be canonical; outputs are canonical representatives of the scaled values.
// It is polyMulMont against the constant r2MontPoly.
func (p *poly) toMont() { polyMulMont(p, &r2MontPoly, p) }

// polyMulMont sets r[i] = aMont[i]·b[i]·2^-32 mod q — the plain-domain
// pointwise product when aMont is Montgomery-scaled and b canonical.
func polyMulMont(r, aMont, b *poly) {
	if useAVX2 {
		polyMulMontAVX2(r, aMont, b)
		return
	}
	polyMulMontGeneric(r, aMont, b)
}

func polyMulMontGeneric(r, aMont, b *poly) {
	for i := range r {
		r[i] = freduce(montReduce(int64(aMont[i]) * int64(b[i])))
	}
}

// polyDotMont sets r to the NTT-domain dot product Σ_j aMont[j]∘b[j] of a
// Montgomery-scaled matrix row with a canonical vector. The int64
// accumulator tolerates up to 2^31/q ≈ 256 terms before a reduction is
// needed — far above the ≤ 8 rows of any parameter set — so the whole row
// costs one montReduce+freduce per coefficient instead of one per term.
func polyDotMont(r *poly, aMont, b []poly) {
	if useAVX2 {
		polyDotMontAVX2(r, aMont, b[:len(aMont)])
		return
	}
	polyDotMontGeneric(r, aMont, b)
}

func polyDotMontGeneric(r *poly, aMont, b []poly) {
	for i := 0; i < N; i++ {
		var acc int64
		for j := range aMont {
			acc += int64(aMont[j][i]) * int64(b[j][i])
		}
		r[i] = freduce(montReduce(acc))
	}
}

func (p *poly) add(a *poly) {
	for i := range p {
		p[i] = freduce(p[i] + a[i])
	}
}

func (p *poly) sub(a *poly) {
	for i := range p {
		p[i] = freduce(p[i] - a[i] + Q)
	}
}

// normExceeds reports whether any centered coefficient has |c| >= bound.
func (p *poly) normExceeds(bound int32) bool {
	for _, x := range p {
		c := centered(x)
		if c < 0 {
			c = -c
		}
		if c >= bound {
			return true
		}
	}
	return false
}

// power2Round splits each coefficient r = r1*2^D + r0 with centered r0.
func power2Round(r int32) (r1, r0 int32) {
	r0 = r & (1<<D - 1)
	if r0 > 1<<(D-1) {
		r0 -= 1 << D
	}
	return (r - r0) >> D, r0
}

// decompose splits r = r1*alpha + r0 (alpha = 2*gamma2, centered r0) with
// the q-1 wraparound fix from the spec. Division-free: the high part comes
// from a fixed-point multiply tuned per gamma2 (only (q-1)/32 and (q-1)/88
// exist across the parameter sets), and the wraparound case r1 = (q-1)/alpha
// folds to 0 via a mask instead of a branch. Output is identical to the
// schoolbook r % alpha / (r-r0)/alpha form for every r in [0, q).
func decompose(r, gamma2 int32) (r1, r0 int32) {
	r1 = (r + 127) >> 7
	if gamma2 == (Q-1)/32 {
		r1 = (r1*1025 + (1 << 21)) >> 22
		r1 &= 15
	} else { // gamma2 == (Q-1)/88
		r1 = (r1*11275 + (1 << 23)) >> 24
		r1 ^= ((43 - r1) >> 31) & r1
	}
	r0 = r - r1*2*gamma2
	r0 -= (((Q-1)/2 - r0) >> 31) & Q
	return r1, r0
}

// highBits returns the r1 part of decompose.
func highBits(r, gamma2 int32) int32 {
	r1, _ := decompose(r, gamma2)
	return r1
}

// makeHint returns 1 when adding z to r changes the high bits.
func makeHint(z, r, gamma2 int32) int32 {
	if highBits(r, gamma2) != highBits(freduce(r+z), gamma2) {
		return 1
	}
	return 0
}

// useHint recovers the high bits of r+z from r and the hint bit.
func useHint(h, r, gamma2 int32) int32 {
	m := (Q - 1) / (2 * gamma2)
	r1, r0 := decompose(r, gamma2)
	if h == 0 {
		return r1
	}
	if r0 > 0 {
		return (r1 + 1) % int32(m)
	}
	return (r1 - 1 + int32(m)) % int32(m)
}
