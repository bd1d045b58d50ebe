package mldsa

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

const noAVX2 = "the AVX2 kernels are not in use (purego tag, non-amd64 or no AVX2 CPU): the methods run the Go kernels this test compares against"

// kernelInput is one set of canonical operands for every kernel: p for the
// transforms and as the left factor, b as the right factor, and the rows
// for polyDotMont.
type kernelInput struct {
	p, b     poly
	row, vec [maxL]poly
}

// checkKernels runs every AVX2 kernel on in and reports where it differs
// from its Go twin.
func checkKernels(t *testing.T, name string, in *kernelInput) {
	t.Helper()
	got, want := in.p, in.p
	nttAVX2(&got, &zetasMont, &zetasMontQinv)
	want.nttGeneric()
	if got != want {
		t.Fatalf("%s: ntt differs at coefficient %d", name, firstDiff(&got, &want))
	}
	got, want = in.p, in.p
	invNTTAVX2(&got, &zetasMont, &zetasMontQinv)
	want.invNTTGeneric()
	if got != want {
		t.Fatalf("%s: invNTT differs at coefficient %d", name, firstDiff(&got, &want))
	}
	polyMulMontAVX2(&got, &in.p, &in.b)
	polyMulMontGeneric(&want, &in.p, &in.b)
	if got != want {
		t.Fatalf("%s: polyMulMont differs at coefficient %d", name, firstDiff(&got, &want))
	}
	polyMulMontAVX2(&got, &r2MontPoly, &in.p)
	polyMulMontGeneric(&want, &r2MontPoly, &in.p)
	if got != want {
		t.Fatalf("%s: toMont differs at coefficient %d", name, firstDiff(&got, &want))
	}
	for l := 1; l <= maxL; l++ {
		polyDotMontAVX2(&got, in.row[:l], in.vec[:l])
		polyDotMontGeneric(&want, in.row[:l], in.vec[:l])
		if got != want {
			t.Fatalf("%s: polyDotMont (L=%d) differs at coefficient %d", name, l, firstDiff(&got, &want))
		}
	}
}

func firstDiff(a, b *poly) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// fill sets every operand of in from next, which must return canonical
// coefficients.
func (in *kernelInput) fill(next func(i int) int32) {
	polys := []*poly{&in.p, &in.b}
	for i := range in.row {
		polys = append(polys, &in.row[i], &in.vec[i])
	}
	i := 0
	for _, p := range polys {
		for j := range p {
			p[j] = next(i)
			i++
		}
	}
}

// TestKernelsMatchGeneric is the oracle of the AVX2 kernels: on edge
// vectors and 10 000 random canonical inputs, each returns exactly what
// its Go twin returns.
func TestKernelsMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip(noAVX2)
	}
	edges := map[string]func(i int) int32{
		"zero":        func(int) int32 { return 0 },
		"q-1":         func(int) int32 { return Q - 1 },
		"alternating": func(i int) int32 { return int32(i&1) * (Q - 1) },
		"alt-1":       func(i int) int32 { return 1 + int32(i&1)*(Q-2) },
		"ramp":        func(i int) int32 { return int32(i) % Q },
	}
	var in kernelInput
	for name, next := range edges {
		in.fill(next)
		checkKernels(t, name, &in)
	}
	trials := 10000
	if testing.Short() {
		trials = 1000
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < trials; trial++ {
		in.fill(func(int) int32 { return rng.Int31n(Q) })
		checkKernels(t, "random", &in)
	}
}

// FuzzNTTKernels compares the AVX2 kernels with the Go kernels on
// coefficients read from the fuzz input, four little-endian bytes each
// reduced mod q, wrapping around the input.
func FuzzNTTKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xe0, 0x7f, 0x00}) // q−1 everywhere
	f.Add([]byte{0, 0, 0, 0, 0x00, 0xe0, 0x7f, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useAVX2 {
			t.Skip(noAVX2)
		}
		var in kernelInput
		in.fill(func(i int) int32 {
			if len(data) == 0 {
				return 0
			}
			var w [4]byte
			for k := range w {
				w[k] = data[(4*i+k)%len(data)]
			}
			return int32(binary.LittleEndian.Uint32(w[:]) % Q)
		})
		checkKernels(t, "fuzz", &in)
	})
}

// BenchmarkKernels times each kernel on both paths; the AVX2 rows are
// skipped where those kernels are not in use.
func BenchmarkKernels(b *testing.B) {
	var in kernelInput
	rng := rand.New(rand.NewSource(1))
	in.fill(func(int) int32 { return rng.Int31n(Q) })
	var r poly
	kernels := []struct {
		name          string
		avx2, generic func()
	}{
		{"ntt", func() { r = in.p; nttAVX2(&r, &zetasMont, &zetasMontQinv) }, func() { r = in.p; r.nttGeneric() }},
		{"invNTT", func() { r = in.p; invNTTAVX2(&r, &zetasMont, &zetasMontQinv) }, func() { r = in.p; r.invNTTGeneric() }},
		{"polyMulMont", func() { polyMulMontAVX2(&r, &in.p, &in.b) }, func() { polyMulMontGeneric(&r, &in.p, &in.b) }},
		{"polyDotMont5", func() { polyDotMontAVX2(&r, in.row[:5], in.vec[:5]) }, func() { polyDotMontGeneric(&r, in.row[:5], in.vec[:5]) }},
	}
	for _, k := range kernels {
		b.Run(k.name+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.generic()
			}
		})
		b.Run(k.name+"/avx2", func(b *testing.B) {
			if !useAVX2 {
				b.Skip(noAVX2)
			}
			for i := 0; i < b.N; i++ {
				k.avx2()
			}
		})
	}
}
