package sha3

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Known-answer tests for the empty input (FIPS 202 reference vectors).
func TestEmptyVectors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"SHA3-256", firstN(Sum256(nil)), "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"},
		{"SHA3-512", firstN(Sum512(nil)), "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a615b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26"},
		{"SHAKE128", ShakeSum128(32, nil), "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"},
		{"SHAKE256", ShakeSum256(32, nil), "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"},
	}
	for _, c := range cases {
		want, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatalf("%s: bad vector: %v", c.name, err)
		}
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s(\"\") = %x, want %x", c.name, c.got, want)
		}
	}
}

func firstN[T [32]byte | [64]byte](a T) []byte {
	switch v := any(a).(type) {
	case [32]byte:
		return v[:]
	case [64]byte:
		return v[:]
	}
	panic("unreachable")
}

// SHA3-256 of "abc" (FIPS 202 example value).
func TestABC(t *testing.T) {
	t.Parallel()
	got := Sum256([]byte("abc"))
	want := "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("SHA3-256(abc) = %x, want %s", got, want)
	}
}

// Squeezing in many small reads must equal one large read.
func TestIncrementalSqueeze(t *testing.T) {
	t.Parallel()
	msg := []byte("the quick brown fox")
	one := ShakeSum128(500, msg)

	x := NewShake128()
	x.Write(msg)
	var parts []byte
	buf := make([]byte, 7)
	for len(parts) < 500 {
		n := min(7, 500-len(parts))
		x.Read(buf[:n])
		parts = append(parts, buf[:n]...)
	}
	if !bytes.Equal(one, parts) {
		t.Error("incremental squeeze differs from single squeeze")
	}
}

// Absorbing in many small writes must equal one large write.
func TestIncrementalAbsorb(t *testing.T) {
	t.Parallel()
	msg := bytes.Repeat([]byte{0xa3}, 1000)
	one := ShakeSum256(64, msg)

	x := NewShake256()
	for i := 0; i < len(msg); i += 13 {
		x.Write(msg[i:min(i+13, len(msg))])
	}
	two := make([]byte, 64)
	x.Read(two)
	if !bytes.Equal(one, two) {
		t.Error("incremental absorb differs from single absorb")
	}
}

func TestReset(t *testing.T) {
	t.Parallel()
	x := NewShake128()
	x.Write([]byte("state to discard"))
	out := make([]byte, 16)
	x.Read(out)
	x.Reset()
	x.Write(nil)
	x.Read(out)
	if !bytes.Equal(out, ShakeSum128(16, nil)) {
		t.Error("Reset did not restore the initial state")
	}
}

func TestWriteAfterReadPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Write after Read")
		}
	}()
	x := NewShake128()
	x.Read(make([]byte, 1))
	x.Write([]byte{1})
}

// Property: splitting the input at any point never changes the digest.
func TestQuickSplitInvariance(t *testing.T) {
	t.Parallel()
	f := func(data []byte, split uint8) bool {
		i := int(split)
		if i > len(data) {
			i = len(data)
		}
		x := NewShake256()
		x.Write(data[:i])
		x.Write(data[i:])
		got := make([]byte, 32)
		x.Read(got)
		return bytes.Equal(got, ShakeSum256(32, data))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: different inputs produce different SHAKE streams (collision
// resistance smoke test over random small inputs).
func TestQuickNoTrivialCollisions(t *testing.T) {
	t.Parallel()
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return !bytes.Equal(ShakeSum128(16, a), ShakeSum128(16, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkShake128_1KiB(b *testing.B) {
	msg := make([]byte, 1024)
	out := make([]byte, 32)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		x := NewShake128()
		x.Write(msg)
		x.Read(out)
	}
}

// The one-shot helpers must not allocate in steady state: every PQ kernel
// leans on them inside its hot sampling and hashing loops.
func TestSumZeroAlloc(t *testing.T) {
	msg := make([]byte, 1024)
	var out32 [32]byte
	var out64 [64]byte
	xof := make([]byte, 64)
	// Warm the state pool.
	out32 = Sum256(msg)
	ShakeSum256Into(xof, msg)
	if n := testing.AllocsPerRun(100, func() { out32 = Sum256(msg) }); n != 0 {
		t.Errorf("Sum256 allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { out64 = Sum512(msg) }); n != 0 {
		t.Errorf("Sum512 allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ShakeSum128Into(xof, msg) }); n != 0 {
		t.Errorf("ShakeSum128Into allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ShakeSum256Into(xof, msg) }); n != 0 {
		t.Errorf("ShakeSum256Into allocates %v times per call, want 0", n)
	}
	_, _ = out32, out64
}

// The rest of this file is the differential oracle for the adapter: a
// readable Keccak-f[1600] and a minimal sponge written from FIPS 202,
// sharing no code with crypto/sha3.

// roundConstants are the 24 iota-step constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// rotc[i] is the rho rotation of the lane consumed at step i of the chained
// rho-pi loop (the triangular numbers (i+1)(i+2)/2 mod 64).
var rotc = [24]int{
	1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14,
	27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
}

// piln[i] is the pi-step destination lane at step i of the chained loop.
var piln = [24]int{
	10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4,
	15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
}

func keccakF1600(a *[25]uint64) {
	var bc [5]uint64
	for round := 0; round < 24; round++ {
		// Theta.
		for x := 0; x < 5; x++ {
			bc[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d := bc[(x+4)%5] ^ bits.RotateLeft64(bc[(x+1)%5], 1)
			for y := 0; y < 25; y += 5 {
				a[y+x] ^= d
			}
		}
		// Rho and pi.
		t := a[1]
		for i := 0; i < 24; i++ {
			j := piln[i]
			bc[0] = a[j]
			a[j] = bits.RotateLeft64(t, rotc[i])
			t = bc[0]
		}
		// Chi.
		for y := 0; y < 25; y += 5 {
			for x := 0; x < 5; x++ {
				bc[x] = a[y+x]
			}
			for x := 0; x < 5; x++ {
				a[y+x] = bc[x] ^ (^bc[(x+1)%5] & bc[(x+2)%5])
			}
		}
		// Iota.
		a[0] ^= roundConstants[round]
	}
}

// refSponge absorbs in at the given rate, pads with the domain byte ds and
// squeezes outLen bytes.
func refSponge(rate int, ds byte, in []byte, outLen int) []byte {
	var a [25]uint64
	absorb := func(block []byte) {
		for i := 0; i < rate/8; i++ {
			a[i] ^= binary.LittleEndian.Uint64(block[8*i:])
		}
		keccakF1600(&a)
	}
	for ; len(in) >= rate; in = in[rate:] {
		absorb(in[:rate])
	}
	last := make([]byte, rate)
	copy(last, in)
	last[len(in)] ^= ds
	last[rate-1] ^= 0x80
	absorb(last)
	var out []byte
	for {
		for i := 0; i < rate/8; i++ {
			out = binary.LittleEndian.AppendUint64(out, a[i])
		}
		if len(out) >= outLen {
			return out[:outLen]
		}
		keccakF1600(&a)
	}
}

// spongeModes are the four FIPS 202 instances the adapter exposes.
var spongeModes = []struct {
	name   string
	rate   int
	ds     byte
	outLen int // fixed digest size; 0 for the XOFs
	sum    func(dst []byte, data ...[]byte)
	xof    func() *XOF
}{
	{name: "SHA3-256", rate: 136, ds: 0x06, outLen: 32, sum: Sum256Into},
	{name: "SHA3-512", rate: 72, ds: 0x06, outLen: 64, sum: Sum512Into},
	{name: "SHAKE128", rate: 168, ds: 0x1F, sum: ShakeSum128Into, xof: NewShake128},
	{name: "SHAKE256", rate: 136, ds: 0x1F, sum: ShakeSum256Into, xof: NewShake256},
}

// checkAgainstReference runs every mode over data, fed to the adapter as
// two pieces split at split, and compares with refSponge: the one-shot
// form for all four modes, and for the XOFs also a streaming state written
// in two calls and squeezed in chunk-sized reads.
func checkAgainstReference(t *testing.T, data []byte, split, outLen, chunk int) {
	t.Helper()
	split = min(split, len(data))
	chunk = max(chunk, 1)
	for _, m := range spongeModes {
		n := outLen
		if m.outLen != 0 {
			n = m.outLen
		}
		want := refSponge(m.rate, m.ds, data, n)
		got := make([]byte, n)
		m.sum(got, data[:split], data[split:])
		if !bytes.Equal(got, want) {
			t.Fatalf("%s one-shot: in %dB split %d out %dB diverges from reference", m.name, len(data), split, n)
		}
		if m.xof == nil {
			continue
		}
		x := m.xof()
		x.Write(data[:split])
		x.Write(data[split:])
		clear(got)
		for off := 0; off < n; off += chunk {
			x.Read(got[off:min(off+chunk, n)])
		}
		PutXOF(x)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s stream: in %dB split %d out %dB in %dB reads diverges from reference", m.name, len(data), split, n, chunk)
		}
	}
}

// TestSpongeVsReference covers input lengths from empty to three blocks of
// the widest rate (so every mode crosses its block boundaries), random
// split points, output lengths over several blocks and odd read sizes.
func TestSpongeVsReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(0x6a09e667))
	edges := []int{0, 1, 71, 72, 73, 135, 136, 137, 167, 168, 169, 2 * 72, 2 * 136, 2 * 168, 3 * 168}
	for trial := 0; trial < 1500; trial++ {
		l := rng.Intn(3*168 + 1)
		if trial < len(edges) {
			l = edges[trial]
		}
		data := make([]byte, l)
		rng.Read(data)
		checkAgainstReference(t, data, rng.Intn(l+1), rng.Intn(3*168+1), 1+rng.Intn(200))
	}
}

func FuzzSpongeVsReference(f *testing.F) {
	f.Add([]byte(nil), uint16(0), uint16(32), uint8(7))
	f.Add([]byte("abc"), uint16(1), uint16(0), uint8(1))
	f.Add(bytes.Repeat([]byte{0xa3}, 136), uint16(72), uint16(169), uint8(13))
	f.Add(bytes.Repeat([]byte{0x5c}, 3*168+5), uint16(168), uint16(500), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, split, outLen uint16, chunk uint8) {
		checkAgainstReference(t, data, int(split), int(outLen)%1024, int(chunk))
	})
}

// A state handed back mid-squeeze must come out of the pool fresh, whichever
// SHAKE variant is asked for next.
func TestPoolHygiene(t *testing.T) {
	msg := []byte("fresh input")
	for _, dirty := range []func() *XOF{NewShake128, NewShake256} {
		for _, m := range spongeModes {
			if m.xof == nil {
				continue
			}
			x := dirty()
			x.Write([]byte("state to discard"))
			x.Read(make([]byte, 5))
			PutXOF(x)

			y := m.xof()
			y.Write(msg)
			got := make([]byte, 200)
			y.Read(got)
			PutXOF(y)
			if !bytes.Equal(got, refSponge(m.rate, m.ds, msg, len(got))) {
				t.Errorf("%s after a recycled mid-squeeze state: output is not the fresh-state output", m.name)
			}
		}
	}
}
