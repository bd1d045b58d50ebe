package mlkem

import (
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"sync"

	"pqtls/internal/crypto/sha3"
)

// Params describes one Kyber parameter set.
type Params struct {
	Name string
	K    int  // module rank
	Eta1 int  // noise parameter for secret/error vectors
	Eta2 int  // noise parameter for encryption noise
	Du   uint // ciphertext compression (vector part)
	Dv   uint // ciphertext compression (scalar part)
	sym  symmetric

	// work recycles the per-operation polynomial buffers (the k×k matrix
	// plus four length-k vectors) across keygen/encaps/decaps calls; the
	// parameter sets are package singletons, so each set keeps its own
	// correctly-sized pool.
	work sync.Pool
}

// maxCiphertextSize is kyber1024's ciphertext (the largest set's), sizing
// the re-encryption scratch in kemWork.
const maxCiphertextSize = 32 * (11*4 + 5)

// kemWork is the scratch space of one KEM operation. Accumulator vectors
// must be zeroed by the user before accumulation (the pool hands back
// dirty buffers). The byte-array fields keep every intermediate of the
// encaps/decaps derivations off the heap: reading randomness or hashing
// through an interface makes a stack buffer escape, so the hot paths stage
// everything in this (already pooled) struct instead.
type kemWork struct {
	mat  []poly // k×k matrix A (or A^T)
	vec1 []poly // s / r
	vec2 []poly // e / e1
	vec3 []poly // t / u
	vec4 []poly // unpacked public vector t in pkeEncrypt

	uniBuf [3 * 168]byte

	m, h, hc   [32]byte
	g          [64]byte
	kOK, kRej  [32]byte
	prfAll     [4*192 + 5*128]byte // 2k+1 noise expansions, k <= 4
	noiseRefs  [9][]byte
	ctBuf      [maxCiphertextSize]byte // FO re-encryption scratch
	prfSeedBuf [64]byte                // keygen seed / PRF staging
}

func (p *Params) getWork() *kemWork {
	w, _ := p.work.Get().(*kemWork)
	if w == nil {
		w = &kemWork{
			mat:  make([]poly, p.K*p.K),
			vec1: make([]poly, p.K),
			vec2: make([]poly, p.K),
			vec3: make([]poly, p.K),
			vec4: make([]poly, p.K),
		}
	}
	return w
}

func (p *Params) putWork(w *kemWork) { p.work.Put(w) }

// The six parameter sets benchmarked by the paper.
var (
	Kyber512     = &Params{Name: "kyber512", K: 2, Eta1: 3, Eta2: 2, Du: 10, Dv: 4, sym: shakeSymmetric{}}
	Kyber768     = &Params{Name: "kyber768", K: 3, Eta1: 2, Eta2: 2, Du: 10, Dv: 4, sym: shakeSymmetric{}}
	Kyber1024    = &Params{Name: "kyber1024", K: 4, Eta1: 2, Eta2: 2, Du: 11, Dv: 5, sym: shakeSymmetric{}}
	Kyber90s512  = &Params{Name: "kyber90s512", K: 2, Eta1: 3, Eta2: 2, Du: 10, Dv: 4, sym: aesSymmetric{}}
	Kyber90s768  = &Params{Name: "kyber90s768", K: 3, Eta1: 2, Eta2: 2, Du: 10, Dv: 4, sym: aesSymmetric{}}
	Kyber90s1024 = &Params{Name: "kyber90s1024", K: 4, Eta1: 2, Eta2: 2, Du: 11, Dv: 5, sym: aesSymmetric{}}
)

// PublicKeySize returns the encapsulation-key length in bytes (384k+32).
func (p *Params) PublicKeySize() int { return 384*p.K + 32 }

// PrivateKeySize returns the decapsulation-key length in bytes (768k+96).
func (p *Params) PrivateKeySize() int { return 768*p.K + 96 }

// CiphertextSize returns the ciphertext length in bytes (32(du·k+dv)).
func (p *Params) CiphertextSize() int { return 32 * (int(p.Du)*p.K + int(p.Dv)) }

// SharedSecretSize is the length of the shared secret in bytes.
func (p *Params) SharedSecretSize() int { return 32 }

// isShake reports whether this set uses the SHAKE/SHA-3 symmetric suite
// (the standard round-3 sets); the 90s sets answer false and take the
// generic interface paths.
func (p *Params) isShake() bool {
	_, ok := p.sym.(shakeSymmetric)
	return ok
}

// GenerateKey creates a fresh key pair from rng (crypto/rand if nil).
func (p *Params) GenerateKey(rng io.Reader) (pk, sk []byte, err error) {
	if rng == nil {
		rng = rand.Reader
	}
	var seed [64]byte // d || z
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, nil, fmt.Errorf("mlkem: reading key seed: %w", err)
	}
	pk, sk = p.deriveKey(seed)
	return pk, sk, nil
}

// deriveKey deterministically expands (d, z) into a key pair.
func (p *Params) deriveKey(seed [64]byte) (pk, sk []byte) {
	g := p.sym.G(seed[:32])
	rho, sigma := g[:32], g[32:]

	w := p.getWork()
	defer p.putWork(w)
	a, s, e, t := w.mat, w.vec1, w.vec2, w.vec3
	p.expandMatrix(a, rho, false, w)
	var prfBuf [64 * 3]byte // 64·eta bytes, eta <= 3
	nonce := byte(0)
	for i := range s {
		p.sym.PRF(prfBuf[:64*p.Eta1], sigma, nonce)
		sampleCBD(&s[i], prfBuf[:64*p.Eta1], p.Eta1)
		nonce++
		s[i].ntt()
	}
	for i := range e {
		p.sym.PRF(prfBuf[:64*p.Eta1], sigma, nonce)
		sampleCBD(&e[i], prfBuf[:64*p.Eta1], p.Eta1)
		nonce++
		e[i].ntt()
	}
	// t = A*s + e (all in the NTT domain).
	for i := 0; i < p.K; i++ {
		t[i] = poly{}
		for j := 0; j < p.K; j++ {
			basemulAcc(&t[i], &a[i*p.K+j], &s[j])
		}
		t[i].add(&e[i])
	}

	pk = make([]byte, 0, p.PublicKeySize())
	for i := range t {
		var buf [384]byte
		t[i].pack(12, buf[:])
		pk = append(pk, buf[:]...)
	}
	pk = append(pk, rho...)

	h := p.sym.H(pk)
	sk = make([]byte, 0, p.PrivateKeySize())
	for i := range s {
		var buf [384]byte
		s[i].pack(12, buf[:])
		sk = append(sk, buf[:]...)
	}
	sk = append(sk, pk...)
	sk = append(sk, h[:]...)
	sk = append(sk, seed[32:]...)
	return pk, sk
}

// expandMatrix derives the k×k matrix A (or its transpose) from rho into
// the caller-provided buffer of k² polynomials, one XOF stream per element.
// All staging lives in w, so the expansion does not allocate.
func (p *Params) expandMatrix(a []poly, rho []byte, transpose bool, w *kemWork) {
	for i := 0; i < p.K; i++ {
		for j := 0; j < p.K; j++ {
			x, y := byte(j), byte(i) // A[i][j] uses XOF(rho, j, i)
			if transpose {
				x, y = y, x
			}
			xof := p.sym.XOF(rho, x, y)
			sampleUniform(&a[i*p.K+j], xof, &w.uniBuf)
			putXOF(xof)
		}
	}
}

// Encapsulate generates a shared secret and its encapsulation against pk.
func (p *Params) Encapsulate(rng io.Reader, pk []byte) (ct, ss []byte, err error) {
	ct = make([]byte, p.CiphertextSize())
	ss = make([]byte, p.SharedSecretSize())
	if err := p.EncapsulateInto(rng, pk, ct, ss); err != nil {
		return nil, nil, err
	}
	return ct, ss, nil
}

// EncapsulateInto is Encapsulate writing the ciphertext and shared secret
// into caller-provided buffers (len CiphertextSize and SharedSecretSize).
// The SHAKE parameter sets run allocation-free: all intermediates live in
// the pooled scratch, so a server encapsulating on every accepted
// connection produces zero per-handshake garbage. Output is byte-identical
// to Encapsulate over the same rng.
func (p *Params) EncapsulateInto(rng io.Reader, pk, ct, ss []byte) error {
	if len(pk) != p.PublicKeySize() {
		return fmt.Errorf("mlkem: public key is %d bytes, want %d", len(pk), p.PublicKeySize())
	}
	if len(ct) != p.CiphertextSize() || len(ss) != p.SharedSecretSize() {
		return fmt.Errorf("mlkem: output buffers are %d/%d bytes, want %d/%d",
			len(ct), len(ss), p.CiphertextSize(), p.SharedSecretSize())
	}
	if rng == nil {
		rng = rand.Reader
	}
	w := p.getWork()
	defer p.putWork(w)
	if _, err := io.ReadFull(rng, w.m[:]); err != nil {
		return fmt.Errorf("mlkem: reading message: %w", err)
	}
	// Round-3 Kyber hashes the raw randomness first: m = H(m). The
	// one-shots absorb fully before squeezing, so hashing in place is safe.
	if p.isShake() {
		sha3.Sum256Into(w.m[:], w.m[:])
		sha3.Sum256Into(w.h[:], pk)
		sha3.Sum512Into(w.g[:], w.m[:], w.h[:])
	} else {
		w.m = p.sym.H(w.m[:])
		w.h = p.sym.H(pk)
		w.g = p.sym.G(w.m[:], w.h[:])
	}
	kBar, r := w.g[:32], w.g[32:]
	p.pkeEncryptInto(ct, pk, w.m[:], r, w)
	if p.isShake() {
		sha3.Sum256Into(w.hc[:], ct)
		sha3.ShakeSum256Into(ss, kBar, w.hc[:])
	} else {
		w.hc = p.sym.H(ct)
		k := p.sym.KDF(kBar, w.hc[:])
		copy(ss, k[:])
	}
	return nil
}

// Decapsulate recovers the shared secret from ct, applying the
// Fujisaki-Okamoto re-encryption check with implicit rejection.
func (p *Params) Decapsulate(sk, ct []byte) ([]byte, error) {
	ss := make([]byte, p.SharedSecretSize())
	if err := p.DecapsulateInto(sk, ct, ss); err != nil {
		return nil, err
	}
	return ss, nil
}

// DecapsulateInto is Decapsulate writing the shared secret into a
// caller-provided buffer, keeping the client-side hot path (one decap per
// full handshake) off the heap for the SHAKE sets.
func (p *Params) DecapsulateInto(sk, ct, ss []byte) error {
	if len(sk) != p.PrivateKeySize() {
		return fmt.Errorf("mlkem: private key is %d bytes, want %d", len(sk), p.PrivateKeySize())
	}
	if len(ct) != p.CiphertextSize() {
		return fmt.Errorf("mlkem: ciphertext is %d bytes, want %d", len(ct), p.CiphertextSize())
	}
	if len(ss) != p.SharedSecretSize() {
		return fmt.Errorf("mlkem: output buffer is %d bytes, want %d", len(ss), p.SharedSecretSize())
	}
	skPKE := sk[:384*p.K]
	pk := sk[384*p.K : 768*p.K+32]
	h := sk[768*p.K+32 : 768*p.K+64]
	z := sk[768*p.K+64:]

	w := p.getWork()
	defer p.putWork(w)
	m := w.m[:]
	p.pkeDecryptInto(m, skPKE, ct, w)
	if p.isShake() {
		sha3.Sum512Into(w.g[:], m, h)
	} else {
		w.g = p.sym.G(m, h)
	}
	kBar, r := w.g[:32], w.g[32:]
	ct2 := w.ctBuf[:p.CiphertextSize()]
	p.pkeEncryptInto(ct2, pk, m, r, w)
	if p.isShake() {
		sha3.Sum256Into(w.hc[:], ct)
		sha3.ShakeSum256Into(w.kOK[:], kBar, w.hc[:])
		sha3.ShakeSum256Into(w.kRej[:], z, w.hc[:])
	} else {
		w.hc = p.sym.H(ct)
		w.kOK = p.sym.KDF(kBar, w.hc[:])
		w.kRej = p.sym.KDF(z, w.hc[:])
	}
	// Constant-time select: on re-encryption mismatch return the implicit
	// rejection key derived from z.
	same := subtle.ConstantTimeCompare(ct, ct2)
	subtle.ConstantTimeCopy(same, ss, w.kOK[:])
	subtle.ConstantTimeCopy(1-same, ss, w.kRej[:])
	return nil
}

// pkeEncryptInto is the inner IND-CPA encryption K-PKE.Encrypt(pk, m; r)
// writing into dst (len CiphertextSize), expanding the 2k+1 noise PRFs
// from coins into w before handing off to the shared core.
func (p *Params) pkeEncryptInto(dst, pk, m, coins []byte, w *kemWork) {
	per := 2*p.K + 1
	off := 0
	for nonce := 0; nonce < per; nonce++ {
		eta := p.Eta2
		if nonce < p.K {
			eta = p.Eta1
		}
		out := w.prfAll[off : off+64*eta]
		p.sym.PRF(out, coins, byte(nonce))
		w.noiseRefs[nonce] = out
		off += 64 * eta
	}
	p.pkeEncryptParts(dst, pk, m, w.noiseRefs[:per], w)
}

// pkeEncryptParts is the noise-parameterized encryption core: noise holds
// the 2k+1 PRF expansions (r-vector, e1-vector, e2) in nonce order, as
// expanded by pkeEncryptInto.
func (p *Params) pkeEncryptParts(dst, pk, m []byte, noise [][]byte, w *kemWork) {
	at, rv, e1, u, tv := w.mat, w.vec1, w.vec2, w.vec3, w.vec4
	for i := 0; i < p.K; i++ {
		tv[i].unpack(12, pk[384*i:384*(i+1)])
	}
	rho := pk[384*p.K:]
	p.expandMatrix(at, rho, true, w)

	var e2 poly
	for i := range rv {
		sampleCBD(&rv[i], noise[i], p.Eta1)
		rv[i].ntt()
	}
	for i := range e1 {
		sampleCBD(&e1[i], noise[p.K+i], p.Eta2)
	}
	sampleCBD(&e2, noise[2*p.K], p.Eta2)

	// u = invNTT(A^T * r) + e1
	for i := 0; i < p.K; i++ {
		u[i] = poly{}
		for j := 0; j < p.K; j++ {
			basemulAcc(&u[i], &at[i*p.K+j], &rv[j])
		}
		u[i].invNTT()
		u[i].add(&e1[i])
	}
	// v = invNTT(t^T * r) + e2 + Decompress1(m)
	var v, mu poly
	for j := 0; j < p.K; j++ {
		basemulAcc(&v, &tv[j], &rv[j])
	}
	v.invNTT()
	v.add(&e2)
	mu.fromMsg(m)
	v.add(&mu)

	off := 0
	for i := range u {
		u[i].compress(p.Du)
		u[i].pack(p.Du, dst[off:off+32*int(p.Du)])
		off += 32 * int(p.Du)
	}
	v.compress(p.Dv)
	v.pack(p.Dv, dst[off:off+32*int(p.Dv)])
}

// pkeDecryptInto is the inner IND-CPA decryption K-PKE.Decrypt(sk, ct),
// writing the 32-byte plaintext into dst.
func (p *Params) pkeDecryptInto(dst []byte, skPKE, ct []byte, w *kemWork) {
	u, s := w.vec1, w.vec2
	for i := range u {
		u[i].unpack(p.Du, ct[32*int(p.Du)*i:32*int(p.Du)*(i+1)])
		u[i].decompress(p.Du)
		u[i].ntt()
	}
	var v poly
	v.unpack(p.Dv, ct[32*int(p.Du)*p.K:])
	v.decompress(p.Dv)

	for i := range s {
		s[i].unpack(12, skPKE[384*i:384*(i+1)])
	}
	var wAcc poly
	for j := 0; j < p.K; j++ {
		basemulAcc(&wAcc, &s[j], &u[j])
	}
	wAcc.invNTT()
	v.sub(&wAcc)
	v.toMsg(dst)
}

// ErrBadKey reports a malformed key or ciphertext.
var ErrBadKey = errors.New("mlkem: malformed key material")
