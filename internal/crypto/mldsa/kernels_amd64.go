//go:build amd64 && !purego

package mldsa

// useAVX2 selects the AVX2 kernels of kernels_amd64.s. It is set once, at
// package initialisation, from CPUID and XGETBV, and never written again.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM state across context switches (CPUID.1:ECX.OSXSAVE, XCR0 bits 1 and
// 2, CPUID.7:EBX.AVX2).
func cpuHasAVX2() bool

// nttAVX2 is nttGeneric in AVX2: same canonical output, same coefficient
// order. zetas and zetasQinv are zetasMont and zetasMontQinv.
//
//go:noescape
func nttAVX2(p *poly, zetas, zetasQinv *[N]int32)

// invNTTAVX2 is invNTTGeneric in AVX2.
//
//go:noescape
func invNTTAVX2(p *poly, zetas, zetasQinv *[N]int32)

// polyMulMontAVX2 is polyMulMontGeneric in AVX2; r may alias a or b.
//
//go:noescape
func polyMulMontAVX2(r, a, b *poly)

// polyDotMontAVX2 is polyDotMontGeneric in AVX2 over len(a) terms; b must
// be at least as long as a.
//
//go:noescape
func polyDotMontAVX2(r *poly, a, b []poly)
