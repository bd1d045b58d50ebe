//go:build !amd64 || purego

package mldsa

// useAVX2 is false off amd64 and under the purego tag: the methods of
// poly.go run the portable kernels, and the stubs below only satisfy the
// compiler.
const useAVX2 = false

func nttAVX2(p *poly, _, _ *[N]int32)      { p.nttGeneric() }
func invNTTAVX2(p *poly, _, _ *[N]int32)   { p.invNTTGeneric() }
func polyMulMontAVX2(r, a, b *poly)        { polyMulMontGeneric(r, a, b) }
func polyDotMontAVX2(r *poly, a, b []poly) { polyDotMontGeneric(r, a, b) }
