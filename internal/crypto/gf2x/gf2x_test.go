package gf2x

import (
	"crypto/rand"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// Small odd ring sizes plus the real HQC/BIKE sizes.
var testRings = []int{7, 64, 65, 127, 12323, 17669}

func TestRotateSmall(t *testing.T) {
	t.Parallel()
	// In the ring of size 7: x^3 * x^5 = x^8 = x.
	p := New(7)
	p.SetBit(3)
	q := New(7)
	p.RotateInto(q, 5)
	if q.Bit(1) != 1 || q.Weight() != 1 {
		t.Errorf("x^3 * x^5 mod x^7-1: got weight %d, bit1=%d", q.Weight(), q.Bit(1))
	}
}

func TestRotateIsBijective(t *testing.T) {
	t.Parallel()
	for _, r := range []int{7, 64, 65, 127} {
		p, err := Random(rand.Reader, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, r - 1, r / 2} {
			q := New(r)
			p.RotateInto(q, k)
			back := New(r)
			q.RotateInto(back, r-k)
			if !back.Equal(p) {
				t.Errorf("r=%d k=%d: rotate forward+back is not identity", r, k)
			}
			if q.Weight() != p.Weight() {
				t.Errorf("r=%d k=%d: rotation changed weight %d -> %d", r, k, p.Weight(), q.Weight())
			}
		}
	}
}

// Property: rotation agrees with the naive bit-by-bit rotation.
func TestQuickRotateMatchesNaive(t *testing.T) {
	t.Parallel()
	f := func(seed []byte, kRaw uint16) bool {
		r := 131
		p := FromBytes(seed, r)
		k := int(kRaw) % r
		got := New(r)
		p.RotateInto(got, k)
		want := New(r)
		for i := 0; i < r; i++ {
			if p.Bit(i) == 1 {
				want.FlipBit((i + k) % r)
			}
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundtrip(t *testing.T) {
	t.Parallel()
	for _, r := range testRings {
		p, err := Random(rand.Reader, r)
		if err != nil {
			t.Fatal(err)
		}
		q := FromBytes(p.Bytes(), r)
		if !q.Equal(p) {
			t.Errorf("r=%d: Bytes/FromBytes roundtrip failed", r)
		}
		if len(p.Bytes()) != (r+7)/8 {
			t.Errorf("r=%d: encoding is %d bytes, want %d", r, len(p.Bytes()), (r+7)/8)
		}
	}
}

func TestMulSparseDistributes(t *testing.T) {
	t.Parallel()
	r := 127
	p, _ := Random(rand.Reader, r)
	// p * (x^a + x^b) == rot(p,a) + rot(p,b)
	got := New(r)
	p.MulSparse(got, []int{3, 77})
	wa, wb := New(r), New(r)
	p.RotateInto(wa, 3)
	p.RotateInto(wb, 77)
	wa.Xor(wb)
	if !got.Equal(wa) {
		t.Error("sparse multiplication does not distribute over rotations")
	}
}

func TestInverseSmall(t *testing.T) {
	t.Parallel()
	// In GF(2)[x]/(x^7-1): invert x (inverse is x^6).
	p := New(7)
	p.SetBit(1)
	inv, ok := p.Inverse()
	if !ok {
		t.Fatal("x should be invertible mod x^7-1")
	}
	if inv.Bit(6) != 1 || inv.Weight() != 1 {
		t.Errorf("inverse of x: got weight %d", inv.Weight())
	}
}

func TestInverseRoundtrip(t *testing.T) {
	t.Parallel()
	// BIKE-style: random odd-weight polynomial in the real L1 ring size.
	r := 12323
	support, err := RandomSupport(rand.Reader, r, 71)
	if err != nil {
		t.Fatal(err)
	}
	h := New(r)
	for _, pos := range support {
		h.SetBit(pos)
	}
	inv, ok := h.Inverse()
	if !ok {
		t.Fatal("odd-weight polynomial should be invertible for BIKE's r")
	}
	// h * inv must be 1: multiply inv (dense) by h (sparse support).
	prod := New(r)
	inv.MulSparse(prod, support)
	if prod.Weight() != 1 || prod.Bit(0) != 1 {
		t.Errorf("h * h^-1 != 1 (weight %d)", prod.Weight())
	}
}

func TestNonInvertible(t *testing.T) {
	t.Parallel()
	// Even-weight polynomials are divisible by x+1, hence not invertible.
	p := New(127)
	p.SetBit(0)
	p.SetBit(5)
	if _, ok := p.Inverse(); ok {
		t.Error("even-weight polynomial reported invertible")
	}
	if _, ok := New(127).Inverse(); ok {
		t.Error("zero polynomial reported invertible")
	}
}

func TestRandomSupport(t *testing.T) {
	t.Parallel()
	sup, err := RandomSupport(rand.Reader, 12323, 134)
	if err != nil {
		t.Fatal(err)
	}
	if len(sup) != 134 {
		t.Fatalf("got %d positions, want 134", len(sup))
	}
	seen := map[int]bool{}
	for _, pos := range sup {
		if pos < 0 || pos >= 12323 {
			t.Fatalf("position %d out of range", pos)
		}
		if seen[pos] {
			t.Fatalf("duplicate position %d", pos)
		}
		seen[pos] = true
	}
}

// mulReference is the retired per-position rotate-fold-xor sparse
// multiplication, kept as the differential-test oracle for the fused
// accumulator in MulSparse and the dense Karatsuba path in Mul.
func mulReference(p *Poly, support []int) *Poly {
	dst := New(p.r)
	tmp := New(p.r)
	for _, pos := range support {
		p.RotateInto(tmp, pos%p.r)
		dst.Xor(tmp)
	}
	return dst
}

// drbg is a deterministic byte stream for reproducible differential trials.
type drbg struct{ s uint64 }

func (d *drbg) Read(p []byte) (int, error) {
	for i := range p {
		d.s = d.s*6364136223846793005 + 1442695040888963407
		p[i] = byte(d.s >> 56)
	}
	return len(p), nil
}

func (d *drbg) intn(n int) int {
	var b [4]byte
	d.Read(b[:])
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return int(v % uint32(n))
}

// TestMulDifferential cross-checks the three multiplication paths
// (MulSparse single-fold accumulator, dense Karatsuba Mul, and the
// bit-serial reference) on thousands of seeded random rings.
func TestMulDifferential(t *testing.T) {
	t.Parallel()
	trials := 10000
	if testing.Short() {
		trials = 1000
	}
	d := &drbg{s: 0x5eed}
	for trial := 0; trial < trials; trial++ {
		r := 65 + d.intn(512)
		p, err := Random(d, r)
		if err != nil {
			t.Fatal(err)
		}
		weight := 1 + d.intn(20)
		support := make([]int, 0, weight)
		seen := map[int]bool{}
		for len(support) < weight {
			pos := d.intn(r)
			if !seen[pos] {
				seen[pos] = true
				support = append(support, pos)
			}
		}
		want := mulReference(p, support)
		sparse := New(r)
		p.MulSparse(sparse, support)
		if !sparse.Equal(want) {
			t.Fatalf("trial %d (r=%d, w=%d): MulSparse differs from reference", trial, r, weight)
		}
		q := New(r)
		for _, pos := range support {
			q.SetBit(pos)
		}
		dense := New(r)
		p.Mul(dense, q)
		if !dense.Equal(want) {
			t.Fatalf("trial %d (r=%d, w=%d): dense Mul differs from reference", trial, r, weight)
		}
	}
}

// TestMulDifferentialRealRings runs the same cross-check at the actual
// BIKE-L1 and HQC-128 ring sizes, including dense*dense commutativity.
func TestMulDifferentialRealRings(t *testing.T) {
	t.Parallel()
	d := &drbg{s: 0xb1ce}
	for _, r := range []int{12323, 17669} {
		p, err := Random(d, r)
		if err != nil {
			t.Fatal(err)
		}
		support, err := RandomSupport(d, r, 71)
		if err != nil {
			t.Fatal(err)
		}
		want := mulReference(p, support)
		sparse := New(r)
		p.MulSparse(sparse, support)
		if !sparse.Equal(want) {
			t.Fatalf("r=%d: MulSparse differs from reference", r)
		}
		q := New(r)
		for _, pos := range support {
			q.SetBit(pos)
		}
		dense := New(r)
		p.Mul(dense, q)
		if !dense.Equal(want) {
			t.Fatalf("r=%d: dense Mul differs from reference", r)
		}
		// Commutativity of the dense path on two dense operands.
		u, _ := Random(d, r)
		ab, ba := New(r), New(r)
		p.Mul(ab, u)
		u.Mul(ba, p)
		if !ab.Equal(ba) {
			t.Fatalf("r=%d: dense Mul is not commutative", r)
		}
	}
}

// clmul64Reference is the textbook shift-and-xor carry-less multiply.
func clmul64Reference(x, y uint64) (hi, lo uint64) {
	for i := 0; i < 64; i++ {
		if y>>i&1 == 1 {
			lo ^= x << i
			if i > 0 {
				hi ^= x >> (64 - i)
			}
		}
	}
	return
}

func TestClmul64(t *testing.T) {
	t.Parallel()
	f := func(x, y uint64) bool {
		gh, gl := clmul64(x, y)
		wh, wl := clmul64Reference(x, y)
		return gh == wh && gl == wl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Edge cases the generator may miss.
	for _, c := range [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {1, ^uint64(0)}, {1 << 63, 1 << 63}} {
		gh, gl := clmul64(c[0], c[1])
		wh, wl := clmul64Reference(c[0], c[1])
		if gh != wh || gl != wl {
			t.Errorf("clmul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)", c[0], c[1], gh, gl, wh, wl)
		}
	}
}

func TestMulSparseNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool Puts at random")
	}
	// The zero-alloc property relies on the sync.Pool'd scratch surviving
	// between runs; a GC landing mid-measurement (likely only under the
	// full -race suite's load) clears the pool and shows up as a spurious
	// allocation, so hold GC off while counting.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := 17669
	d := &drbg{s: 7}
	p, _ := Random(d, r)
	support, _ := RandomSupport(d, r, 66)
	dst := New(r)
	p.MulSparse(dst, support) // warm the pool
	if n := testing.AllocsPerRun(10, func() { p.MulSparse(dst, support) }); n != 0 {
		t.Errorf("MulSparse allocates %v times per call, want 0", n)
	}
	q := New(r)
	for _, pos := range support {
		q.SetBit(pos)
	}
	p.Mul(dst, q)
	if n := testing.AllocsPerRun(10, func() { p.Mul(dst, q) }); n != 0 {
		t.Errorf("Mul allocates %v times per call, want 0", n)
	}
}

func BenchmarkMulDense17669(b *testing.B) {
	r := 17669
	p, _ := Random(rand.Reader, r)
	q, _ := Random(rand.Reader, r)
	dst := New(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Mul(dst, q)
	}
}

func BenchmarkInverse12323(b *testing.B) {
	r := 12323
	support, _ := RandomSupport(rand.Reader, r, 71)
	h := New(r)
	for _, pos := range support {
		h.SetBit(pos)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Inverse(); !ok {
			b.Fatal("not invertible")
		}
	}
}

func BenchmarkMulSparse17669(b *testing.B) {
	r := 17669
	p, _ := Random(rand.Reader, r)
	support, _ := RandomSupport(rand.Reader, r, 66)
	dst := New(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MulSparse(dst, support)
	}
}
