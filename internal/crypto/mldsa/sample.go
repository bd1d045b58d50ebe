package mldsa

import (
	"crypto/aes"
	"crypto/cipher"
	"io"

	"pqtls/internal/crypto/sha3"
)

// expander abstracts the seed-expansion streams: SHAKE for the standard
// sets, AES-256-CTR for the *_aes sets. Hashing (tr, mu, c-tilde) is always
// SHAKE256, matching the reference dilithium-aes construction.
type expander interface {
	// Stream128 returns the wide stream used for matrix expansion.
	Stream128(seed []byte, nonce uint16) io.Reader
	// Stream256 returns the narrow stream used for secret/mask expansion.
	Stream256(seed []byte, nonce uint16) io.Reader
}

type shakeExpander struct{}

func shakeStream(newXOF func() *sha3.XOF, seed []byte, nonce uint16) io.Reader {
	x := newXOF()
	x.Write(seed)
	var n [2]byte
	n[0], n[1] = byte(nonce), byte(nonce>>8)
	x.Write(n[:])
	return x
}

func (shakeExpander) Stream128(seed []byte, nonce uint16) io.Reader {
	return shakeStream(sha3.NewShake128, seed, nonce)
}

func (shakeExpander) Stream256(seed []byte, nonce uint16) io.Reader {
	return shakeStream(sha3.NewShake256, seed, nonce)
}

// putStream hands a finished expansion stream back to the sha3 state pool
// (a no-op for the AES-CTR streams of the *_aes variants).
func putStream(r io.Reader) { sha3.PutXOF(r) }

type aesExpander struct{}

func aesStream(seed []byte, nonce uint16) io.Reader {
	key := seed
	if len(key) > 32 {
		key = key[:32]
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("mldsa: bad AES key: " + err.Error())
	}
	var iv [16]byte
	iv[0], iv[1] = byte(nonce), byte(nonce>>8)
	stream := cipher.NewCTR(block, iv[:])
	return streamReader{stream}
}

func (aesExpander) Stream128(seed []byte, nonce uint16) io.Reader { return aesStream(seed, nonce) }
func (aesExpander) Stream256(seed []byte, nonce uint16) io.Reader { return aesStream(seed, nonce) }

type streamReader struct{ s cipher.Stream }

func (r streamReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	r.s.XORKeyStream(p, p)
	return len(p), nil
}

// sampleUniform rejection-samples coefficients < Q from 23-bit candidates.
// The caller lends the block buffer (via sampleScratch) so the read through
// the io.Reader interface doesn't force a heap allocation.
func sampleUniform(p *poly, r io.Reader, buf *[168]byte) {
	i := 0
	for i < N {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			panic("mldsa: stream read: " + err.Error())
		}
		for j := 0; j+3 <= len(buf) && i < N; j += 3 {
			t := int32(buf[j]) | int32(buf[j+1])<<8 | int32(buf[j+2]&0x7F)<<16
			if t < Q {
				p[i] = t
				i++
			}
		}
	}
}

// sampleEta rejection-samples coefficients in [-eta, eta] from nibbles.
func sampleEta(p *poly, r io.Reader, eta int32, buf *[136]byte) {
	i := 0
	for i < N {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			panic("mldsa: stream read: " + err.Error())
		}
		for _, b := range buf {
			for _, t := range [2]int32{int32(b & 0x0F), int32(b >> 4)} {
				if i >= N {
					break
				}
				switch eta {
				case 2:
					if t < 15 {
						p[i] = freduce(2 - t%5 + Q)
						i++
					}
				case 4:
					if t < 9 {
						p[i] = freduce(4 - t + Q)
						i++
					}
				default:
					panic("mldsa: unsupported eta")
				}
			}
		}
	}
}

// sampleMask draws coefficients uniform in (-gamma1, gamma1] packed in
// gamma1Bits bits each. This runs once per mask coefficient vector inside
// the signing rejection loop, so the read buffer is lent by the caller
// (640 bytes covers the widest packing, gamma1Bits = 20) and the call
// must not allocate.
func sampleMask(p *poly, r io.Reader, gamma1 int32, gamma1Bits uint, buf *[N * 20 / 8]byte) {
	b := buf[:N*int(gamma1Bits)/8]
	if _, err := io.ReadFull(r, b); err != nil {
		panic("mldsa: stream read: " + err.Error())
	}
	unpackBits(p, b, gamma1Bits, func(t uint32) int32 {
		return freduce(gamma1 - int32(t) + Q)
	})
}

// sampleInBall derives the sparse ternary challenge polynomial from seed.
func sampleInBall(seed []byte, tau int) poly {
	var c poly
	s := getSampleScratch()
	sampleInBallInto(&c, seed, tau, &s.ball)
	putSampleScratch(s)
	return c
}

// sampleInBallInto is sampleInBall expanding the seed through a pooled
// SHAKE256 state, writing the challenge into c with all staging in the
// caller-lent buffer.
func sampleInBallInto(c *poly, seed []byte, tau int, buf *[16]byte) {
	x := sha3.NewShake256()
	x.Write(seed)
	sampleInBallStream(c, x, tau, buf)
	sha3.PutXOF(x)
}

// sampleInBallStream runs the in-ball rejection sampler against an
// already-positioned challenge stream (SHAKE256 over the seed): 8 sign
// bytes, then one byte per rejection step.
func sampleInBallStream(c *poly, r io.Reader, tau int, buf *[16]byte) {
	signBuf := buf[:8]
	if _, err := io.ReadFull(r, signBuf); err != nil {
		panic("mldsa: stream read: " + err.Error())
	}
	signs := uint64(0)
	for i, b := range signBuf {
		signs |= uint64(b) << (8 * i)
	}
	*c = poly{}
	b := buf[8:9]
	for i := N - tau; i < N; i++ {
		for {
			if _, err := io.ReadFull(r, b); err != nil {
				panic("mldsa: stream read: " + err.Error())
			}
			if int(b[0]) <= i {
				break
			}
		}
		j := int(b[0])
		c[i] = c[j]
		if signs&1 == 1 {
			c[j] = Q - 1
		} else {
			c[j] = 1
		}
		signs >>= 1
	}
}

// packBitsInto serializes f(coeff) (width bits each), appending to dst.
// Appending into a pre-sized buffer keeps the hot packing paths (w1 inside
// the signing loop, signature assembly) allocation-free.
func packBitsInto(dst []byte, p *poly, width uint, f func(int32) uint32) []byte {
	var acc uint64
	var bits uint
	for _, x := range p {
		acc |= uint64(f(x)&(1<<width-1)) << bits
		bits += width
		for bits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			bits -= 8
		}
	}
	return dst
}

// packBits serializes f(coeff) (width bits each) into a fresh byte slice.
func packBits(p *poly, width uint, f func(int32) uint32) []byte {
	return packBitsInto(make([]byte, 0, N*int(width)/8), p, width, f)
}

// unpackBits reads width-bit groups and stores f(group) as coefficients.
func unpackBits(p *poly, in []byte, width uint, f func(uint32) int32) {
	var acc uint64
	var bits uint
	j := 0
	for i := range p {
		for bits < width {
			acc |= uint64(in[j]) << bits
			bits += 8
			j++
		}
		p[i] = f(uint32(acc & (1<<width - 1)))
		acc >>= width
		bits -= width
	}
}
