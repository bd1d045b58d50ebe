//go:build amd64 && !purego

#include "textflag.h"

// AVX2 versions of the arithmetic kernels of poly.go. Each returns exactly
// what its Go twin returns: canonical coefficients in [0, q), in the same
// natural (bit-reversed zeta) order. The Montgomery product follows the
// round-3 Dilithium AVX2 reference (ntt.S, CC0): VPMULDQ on the even
// lanes and on a 32-bit-shifted copy for the odd lanes, with a
// precomputed zeta·qInv table saving the multiply that finds
// montReduce's t. The butterflies are the ones nttGeneric and
// invNTTGeneric run, in the same lazy-reduction scheme, so every
// intermediate value and its bound are theirs.
//
// Both transforms work on 64-coefficient groups held in Y0–Y7. Layers of
// distance ≥ 8 are vertical butterflies with a broadcast zeta. For
// distances 4, 2 and 1 the group is transposed as an 8×8 matrix, the
// layers run as vertical butterflies with one zeta per lane, and the
// group is transposed back, so the output order never changes. The
// per-lane zeta vectors are gathered from zetasMont and zetasMontQinv by
// VPERMD into the stack frame before each group.
//
// Register conventions: Y15 holds q in every lane; Y12–Y14 are scratch of
// the macros below.

#define QMOD 8380417
// FMONT is 256^-1·2^32 mod q (invNTTGeneric's fMont); FMONTQINV is
// FMONT·qInv mod 2^32.
#define FMONT 16382
#define FMONTQINV 16777214
#define QINV 58728449

// BCAST(imm, x, y) sets every lane of y to the 32-bit immediate.
#define BCAST(imm, x, y) \
	MOVL         $imm, R11; \
	VMOVD        R11, x;    \
	VPBROADCASTD x, y

// LOADIDX(imm, x, y) widens the eight bytes of imm, lowest first, into
// the eight dword lanes of y: a VPERMD index vector.
#define LOADIDX(imm, x, y) \
	MOVQ      $imm, R11; \
	VMOVQ     R11, x;    \
	VPMOVZXBD x, y

// MONT(x, zl, zl1, zh, zh1) sets each lane of x to montReduce(x·z). The
// even lanes read z from the low dwords of zh and z·qInv from zl; the odd
// lanes read them from zh1 and zl1.
#define MONT(x, zl, zl1, zh, zh1) \
	VPSRLQ    $32, x, Y12;        \
	VPMULDQ   zl, x, Y13;         \
	VPMULDQ   zl1, Y12, Y14;      \
	VPMULDQ   zh, x, x;           \
	VPMULDQ   zh1, Y12, Y12;      \
	VPMULDQ   Y15, Y13, Y13;      \
	VPMULDQ   Y15, Y14, Y14;      \
	VPSUBQ    Y13, x, x;          \
	VPSUBQ    Y14, Y12, Y12;      \
	VMOVSHDUP x, x;               \
	VPBLENDD  $0xAA, Y12, x, x

// CT is nttGeneric's butterfly: t = montReduce(z·b); b = a − t; a = a + t.
#define CT(a, b, zl, zl1, zh, zh1) \
	MONT(b, zl, zl1, zh, zh1); \
	VPSUBD  b, a, Y12;         \
	VPADDD  b, a, a;           \
	VMOVDQA Y12, b

// GS is invNTTGeneric's butterfly: a, b = a + b, montReduce(z·(b − a)).
#define GS(a, b, zl, zl1, zh, zh1) \
	VPADDD  b, a, Y12;         \
	VPSUBD  a, b, b;           \
	VMOVDQA Y12, a;            \
	MONT(b, zl, zl1, zh, zh1)

// CANON maps lanes in (−q, q) to [0, q).
#define CANON(x) \
	VPSRAD $31, x, Y12;   \
	VPAND  Y15, Y12, Y12; \
	VPADDD Y12, x, x

// FREDUCE is freduce: t = (x + 2^22) >> 23, x −= t·q, then CANON. c22
// holds 2^22 in every lane.
#define FREDUCE(x, c22) \
	VPADDD  c22, x, Y12;   \
	VPSRAD  $23, Y12, Y12; \
	VPMULLD Y15, Y12, Y12; \
	VPSUBD  Y12, x, x;     \
	CANON(x)

// REDUCE64(e, o) sets e to montReduce of the 64-bit even-lane values in e
// and odd-lane values in o. Y11 holds qInv in every lane.
#define REDUCE64(e, o) \
	VPMULDQ   Y11, e, Y13;  \
	VPMULDQ   Y11, o, Y14;  \
	VPMULDQ   Y15, Y13, Y13; \
	VPMULDQ   Y15, Y14, Y14; \
	VPSUBQ    Y13, e, e;    \
	VPSUBQ    Y14, o, o;    \
	VMOVSHDUP e, e;         \
	VPBLENDD  $0xAA, o, e, e

// TRANSPOSE transposes the 8×8 dword matrix whose rows are Y0–Y7, in
// place, using Y8–Y14.
#define TRANSPOSE \
	VPUNPCKLDQ  Y1, Y0, Y8;        \
	VPUNPCKHDQ  Y1, Y0, Y9;        \
	VPUNPCKLDQ  Y3, Y2, Y10;       \
	VPUNPCKHDQ  Y3, Y2, Y11;       \
	VPUNPCKLDQ  Y5, Y4, Y12;       \
	VPUNPCKHDQ  Y5, Y4, Y13;       \
	VPUNPCKLDQ  Y7, Y6, Y14;       \
	VPUNPCKHDQ  Y7, Y6, Y0;        \
	VPUNPCKLQDQ Y10, Y8, Y1;       \
	VPUNPCKHQDQ Y10, Y8, Y2;       \
	VPUNPCKLQDQ Y11, Y9, Y3;       \
	VPUNPCKHQDQ Y11, Y9, Y4;       \
	VPUNPCKLQDQ Y14, Y12, Y5;      \
	VPUNPCKHQDQ Y14, Y12, Y6;      \
	VPUNPCKLQDQ Y0, Y13, Y7;       \
	VPUNPCKHQDQ Y0, Y13, Y8;       \
	VPERM2I128  $0x20, Y5, Y1, Y0; \
	VPERM2I128  $0x31, Y5, Y1, Y9; \
	VPERM2I128  $0x20, Y6, Y2, Y1; \
	VPERM2I128  $0x31, Y6, Y2, Y5; \
	VPERM2I128  $0x20, Y7, Y3, Y2; \
	VPERM2I128  $0x31, Y7, Y3, Y6; \
	VPERM2I128  $0x20, Y8, Y4, Y3; \
	VPERM2I128  $0x31, Y8, Y4, Y7; \
	VMOVDQA     Y9, Y4

// LOAD8(base, stride) and STORE8 move Y0–Y7 from and to eight vectors
// stride bytes apart.
#define LOAD8(base, stride) \
	VMOVDQU (0*stride)(base), Y0; \
	VMOVDQU (1*stride)(base), Y1; \
	VMOVDQU (2*stride)(base), Y2; \
	VMOVDQU (3*stride)(base), Y3; \
	VMOVDQU (4*stride)(base), Y4; \
	VMOVDQU (5*stride)(base), Y5; \
	VMOVDQU (6*stride)(base), Y6; \
	VMOVDQU (7*stride)(base), Y7

#define STORE8(base, stride) \
	VMOVDQU Y0, (0*stride)(base); \
	VMOVDQU Y1, (1*stride)(base); \
	VMOVDQU Y2, (2*stride)(base); \
	VMOVDQU Y3, (3*stride)(base); \
	VMOVDQU Y4, (4*stride)(base); \
	VMOVDQU Y5, (5*stride)(base); \
	VMOVDQU Y6, (6*stride)(base); \
	VMOVDQU Y7, (7*stride)(base)

// ZBCAST(off, zl, zh) broadcasts zetasMontQinv and zetasMont at byte
// offset off of CX and BX.
#define ZBCAST(off, zl, zh) \
	VPBROADCASTD off(CX), zl; \
	VPBROADCASTD off(BX), zh

// ZLANES(lo, hi) loads one per-lane zeta vector pair into Y8–Y11: the
// qInv products from lo, the zetas from hi, each with its odd-lane copy.
#define ZLANES(lo, hi) \
	VMOVDQU lo, Y8;        \
	VPSRLQ  $32, Y8, Y9;   \
	VMOVDQU hi, Y10;       \
	VPSRLQ  $32, Y10, Y11

// ZSTACK(off) is ZLANES from the frame, where the per-lane sets are
// stored as 32 bytes of qInv products followed by 32 bytes of zetas.
#define ZSTACK(off) ZLANES(off(SP), off+32(SP))

// PREP2(t, o0, o1, idx, d0, d1) permutes the vectors at o0(t) and o1(t)
// by idx and stores the low halves of the two results at d0(SP) and the
// high halves at d1(SP): the even- and odd-indexed zetas of 16.
#define PREP2(t, o0, o1, idx, d0, d1) \
	VPERMD     o0(t), idx, Y0;       \
	VPERMD     o1(t), idx, Y1;       \
	VPERM2I128 $0x20, Y1, Y0, Y2;    \
	VPERM2I128 $0x31, Y1, Y0, Y3;    \
	VMOVDQU    Y2, d0(SP);           \
	VMOVDQU    Y3, d1(SP)

// PREP4(t, o0, o1, o2, o3, idx, d) permutes the four vectors at oi(t) by
// idx, transposes them as a 4×4 matrix of quadwords and stores row c at
// d+64c(SP): zeta 4i+c of 32 lands in lane i of row c.
#define PREP4(t, o0, o1, o2, o3, idx, d) \
	VPERMD      o0(t), idx, Y0;       \
	VPERMD      o1(t), idx, Y1;       \
	VPERMD      o2(t), idx, Y2;       \
	VPERMD      o3(t), idx, Y3;       \
	VPUNPCKLQDQ Y1, Y0, Y4;           \
	VPUNPCKHQDQ Y1, Y0, Y5;           \
	VPUNPCKLQDQ Y3, Y2, Y6;           \
	VPUNPCKHQDQ Y3, Y2, Y7;           \
	VPERM2I128  $0x20, Y6, Y4, Y0;    \
	VPERM2I128  $0x20, Y7, Y5, Y1;    \
	VPERM2I128  $0x31, Y6, Y4, Y2;    \
	VPERM2I128  $0x31, Y7, Y5, Y3;    \
	VMOVDQU     Y0, d(SP);            \
	VMOVDQU     Y1, d+64(SP);         \
	VMOVDQU     Y2, d+128(SP);        \
	VMOVDQU     Y3, d+192(SP)

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX // OSXSAVE
	JCC  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: SSE and AVX state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func nttAVX2(p *poly, zetas, zetasQinv *[N]int32)
//
// Frame: per-lane zeta sets (64 bytes each) of one group: layer 2 at 0
// and 64, layer 1 at 128, 192, 256 and 320.
TEXT ·nttAVX2(SB), 0, $384-24
	MOVQ p+0(FP), AX
	MOVQ zetas+8(FP), BX
	MOVQ zetasQinv+16(FP), CX
	BCAST(QMOD, X15, Y15)

	// Layers 128, 64 and 32 on the vectors p[8o+32r:], r = 0..7, for
	// each o in 0..3. DX = 32·o.
	XORQ DX, DX

fwdOuter:
	LEAQ (AX)(DX*1), DI
	LOAD8(DI, 128)
	ZBCAST(4, Y8, Y9)
	CT(Y0, Y4, Y8, Y8, Y9, Y9)
	CT(Y1, Y5, Y8, Y8, Y9, Y9)
	CT(Y2, Y6, Y8, Y8, Y9, Y9)
	CT(Y3, Y7, Y8, Y8, Y9, Y9)
	ZBCAST(8, Y8, Y9)
	ZBCAST(12, Y10, Y11)
	CT(Y0, Y2, Y8, Y8, Y9, Y9)
	CT(Y1, Y3, Y8, Y8, Y9, Y9)
	CT(Y4, Y6, Y10, Y10, Y11, Y11)
	CT(Y5, Y7, Y10, Y10, Y11, Y11)
	ZBCAST(16, Y8, Y9)
	ZBCAST(20, Y10, Y11)
	CT(Y0, Y1, Y8, Y8, Y9, Y9)
	CT(Y2, Y3, Y10, Y10, Y11, Y11)
	ZBCAST(24, Y8, Y9)
	ZBCAST(28, Y10, Y11)
	CT(Y4, Y5, Y8, Y8, Y9, Y9)
	CT(Y6, Y7, Y10, Y10, Y11, Y11)
	STORE8(DI, 128)
	ADDQ $32, DX
	CMPQ DX, $128
	JB   fwdOuter

	// Layers 16 to 1 on the group p[64g:64g+64], for each g in 0..3.
	// DX = 32·g and SI = 8·g, so zeta k+c·g sits at byte 4k of the table
	// indexed by DX or SI times a scale.
	XORQ DX, DX

fwdInner:
	MOVQ DX, SI
	SHRQ $2, SI

	// Layer 2: zetas 64+16g+2i (lane i) and 64+16g+2i+1.
	LEAQ    256(CX)(DX*2), R9
	LEAQ    256(BX)(DX*2), R10
	LOADIDX(0x0705030106040200, X14, Y14)
	PREP2(R9, 0, 32, Y14, 0, 64)
	PREP2(R10, 0, 32, Y14, 32, 96)

	// Layer 1: zetas 128+32g+4i+c, c = 0..3.
	LEAQ    512(CX)(DX*4), R9
	LEAQ    512(BX)(DX*4), R10
	LOADIDX(0x0703060205010400, X14, Y14)
	PREP4(R9, 0, 32, 64, 96, Y14, 128)
	PREP4(R10, 0, 32, 64, 96, Y14, 160)

	LEAQ (AX)(DX*8), DI
	LOAD8(DI, 32)

	// Layer 16: zetas 8+2g and 9+2g.
	VPBROADCASTD 32(CX)(SI*1), Y8
	VPBROADCASTD 32(BX)(SI*1), Y9
	VPBROADCASTD 36(CX)(SI*1), Y10
	VPBROADCASTD 36(BX)(SI*1), Y11
	CT(Y0, Y2, Y8, Y8, Y9, Y9)
	CT(Y1, Y3, Y8, Y8, Y9, Y9)
	CT(Y4, Y6, Y10, Y10, Y11, Y11)
	CT(Y5, Y7, Y10, Y10, Y11, Y11)

	// Layer 8: zetas 16+4g .. 19+4g.
	VPBROADCASTD 64(CX)(SI*2), Y8
	VPBROADCASTD 64(BX)(SI*2), Y9
	VPBROADCASTD 68(CX)(SI*2), Y10
	VPBROADCASTD 68(BX)(SI*2), Y11
	CT(Y0, Y1, Y8, Y8, Y9, Y9)
	CT(Y2, Y3, Y10, Y10, Y11, Y11)
	VPBROADCASTD 72(CX)(SI*2), Y8
	VPBROADCASTD 72(BX)(SI*2), Y9
	VPBROADCASTD 76(CX)(SI*2), Y10
	VPBROADCASTD 76(BX)(SI*2), Y11
	CT(Y4, Y5, Y8, Y8, Y9, Y9)
	CT(Y6, Y7, Y10, Y10, Y11, Y11)

	TRANSPOSE

	// Layer 4: zetas 32+8g+i, straight from the tables.
	ZLANES(128(CX)(DX*1), 128(BX)(DX*1))
	CT(Y0, Y4, Y8, Y9, Y10, Y11)
	CT(Y1, Y5, Y8, Y9, Y10, Y11)
	CT(Y2, Y6, Y8, Y9, Y10, Y11)
	CT(Y3, Y7, Y8, Y9, Y10, Y11)

	// Layer 2.
	ZSTACK(0)
	CT(Y0, Y2, Y8, Y9, Y10, Y11)
	CT(Y1, Y3, Y8, Y9, Y10, Y11)
	ZSTACK(64)
	CT(Y4, Y6, Y8, Y9, Y10, Y11)
	CT(Y5, Y7, Y8, Y9, Y10, Y11)

	// Layer 1.
	ZSTACK(128)
	CT(Y0, Y1, Y8, Y9, Y10, Y11)
	ZSTACK(192)
	CT(Y2, Y3, Y8, Y9, Y10, Y11)
	ZSTACK(256)
	CT(Y4, Y5, Y8, Y9, Y10, Y11)
	ZSTACK(320)
	CT(Y6, Y7, Y8, Y9, Y10, Y11)

	TRANSPOSE

	BCAST(0x400000, X8, Y8)
	FREDUCE(Y0, Y8)
	FREDUCE(Y1, Y8)
	FREDUCE(Y2, Y8)
	FREDUCE(Y3, Y8)
	FREDUCE(Y4, Y8)
	FREDUCE(Y5, Y8)
	FREDUCE(Y6, Y8)
	FREDUCE(Y7, Y8)
	STORE8(DI, 32)

	ADDQ $32, DX
	CMPQ DX, $128
	JB   fwdInner

	VZEROUPPER
	RET

// func invNTTAVX2(p *poly, zetas, zetasQinv *[N]int32)
//
// Frame: per-lane zeta sets (64 bytes each) of one group: layer 1 at 0,
// 64, 128 and 192, layer 2 at 256 and 320, layer 4 at 384.
TEXT ·invNTTAVX2(SB), 0, $448-24
	MOVQ p+0(FP), AX
	MOVQ zetas+8(FP), BX
	MOVQ zetasQinv+16(FP), CX
	BCAST(QMOD, X15, Y15)

	// Layers 1 to 16 on the group p[64g:64g+64], for each g in 0..3.
	// DX = 32·g, R12 = −32·g and SI = −8·g: the zetas run downwards.
	XORQ DX, DX

invInner:
	MOVQ DX, R12
	NEGQ R12
	MOVQ R12, SI
	SARQ $2, SI

	// Layer 1: zetas 255−32g−4i−c, c = 0..3, from the 32 at 224−32g.
	LEAQ    896(CX)(R12*4), R9
	LEAQ    896(BX)(R12*4), R10
	LOADIDX(0x0004010502060307, X14, Y14)
	PREP4(R9, 96, 64, 32, 0, Y14, 0)
	PREP4(R10, 96, 64, 32, 0, Y14, 32)

	// Layer 2: zetas 127−16g−2i and 127−16g−2i−1, from the 16 at
	// 112−16g.
	LEAQ    448(CX)(R12*2), R9
	LEAQ    448(BX)(R12*2), R10
	LOADIDX(0x0002040601030507, X14, Y14)
	PREP2(R9, 32, 0, Y14, 256, 320)
	PREP2(R10, 32, 0, Y14, 288, 352)

	// Layer 4: zetas 63−8g−i, the 8 at 56−8g reversed.
	LOADIDX(0x0001020304050607, X14, Y14)
	VPERMD  224(CX)(R12*1), Y14, Y0
	VMOVDQU Y0, 384(SP)
	VPERMD  224(BX)(R12*1), Y14, Y0
	VMOVDQU Y0, 416(SP)

	LEAQ (AX)(DX*8), DI
	LOAD8(DI, 32)
	TRANSPOSE

	// Layer 1.
	ZSTACK(0)
	GS(Y0, Y1, Y8, Y9, Y10, Y11)
	ZSTACK(64)
	GS(Y2, Y3, Y8, Y9, Y10, Y11)
	ZSTACK(128)
	GS(Y4, Y5, Y8, Y9, Y10, Y11)
	ZSTACK(192)
	GS(Y6, Y7, Y8, Y9, Y10, Y11)

	// Layer 2.
	ZSTACK(256)
	GS(Y0, Y2, Y8, Y9, Y10, Y11)
	GS(Y1, Y3, Y8, Y9, Y10, Y11)
	ZSTACK(320)
	GS(Y4, Y6, Y8, Y9, Y10, Y11)
	GS(Y5, Y7, Y8, Y9, Y10, Y11)

	// Layer 4.
	ZSTACK(384)
	GS(Y0, Y4, Y8, Y9, Y10, Y11)
	GS(Y1, Y5, Y8, Y9, Y10, Y11)
	GS(Y2, Y6, Y8, Y9, Y10, Y11)
	GS(Y3, Y7, Y8, Y9, Y10, Y11)

	TRANSPOSE

	// Layer 8: zetas 31−4g .. 28−4g.
	VPBROADCASTD 124(CX)(SI*2), Y8
	VPBROADCASTD 124(BX)(SI*2), Y9
	VPBROADCASTD 120(CX)(SI*2), Y10
	VPBROADCASTD 120(BX)(SI*2), Y11
	GS(Y0, Y1, Y8, Y8, Y9, Y9)
	GS(Y2, Y3, Y10, Y10, Y11, Y11)
	VPBROADCASTD 116(CX)(SI*2), Y8
	VPBROADCASTD 116(BX)(SI*2), Y9
	VPBROADCASTD 112(CX)(SI*2), Y10
	VPBROADCASTD 112(BX)(SI*2), Y11
	GS(Y4, Y5, Y8, Y8, Y9, Y9)
	GS(Y6, Y7, Y10, Y10, Y11, Y11)

	// Layer 16: zetas 15−2g and 14−2g.
	VPBROADCASTD 60(CX)(SI*1), Y8
	VPBROADCASTD 60(BX)(SI*1), Y9
	VPBROADCASTD 56(CX)(SI*1), Y10
	VPBROADCASTD 56(BX)(SI*1), Y11
	GS(Y0, Y2, Y8, Y8, Y9, Y9)
	GS(Y1, Y3, Y8, Y8, Y9, Y9)
	GS(Y4, Y6, Y10, Y10, Y11, Y11)
	GS(Y5, Y7, Y10, Y10, Y11, Y11)

	STORE8(DI, 32)
	ADDQ $32, DX
	CMPQ DX, $128
	JB   invInner

	// Layers 32, 64 and 128 on the vectors p[8o+32r:], r = 0..7, for
	// each o in 0..3, then the 256^-1 Montgomery scaling and the final
	// canonicalisation in the same pass. DX = 32·o.
	XORQ DX, DX

invOuter:
	LEAQ (AX)(DX*1), DI
	LOAD8(DI, 128)
	ZBCAST(28, Y8, Y9)
	ZBCAST(24, Y10, Y11)
	GS(Y0, Y1, Y8, Y8, Y9, Y9)
	GS(Y2, Y3, Y10, Y10, Y11, Y11)
	ZBCAST(20, Y8, Y9)
	ZBCAST(16, Y10, Y11)
	GS(Y4, Y5, Y8, Y8, Y9, Y9)
	GS(Y6, Y7, Y10, Y10, Y11, Y11)
	ZBCAST(12, Y8, Y9)
	ZBCAST(8, Y10, Y11)
	GS(Y0, Y2, Y8, Y8, Y9, Y9)
	GS(Y1, Y3, Y8, Y8, Y9, Y9)
	GS(Y4, Y6, Y10, Y10, Y11, Y11)
	GS(Y5, Y7, Y10, Y10, Y11, Y11)
	ZBCAST(4, Y8, Y9)
	GS(Y0, Y4, Y8, Y8, Y9, Y9)
	GS(Y1, Y5, Y8, Y8, Y9, Y9)
	GS(Y2, Y6, Y8, Y8, Y9, Y9)
	GS(Y3, Y7, Y8, Y8, Y9, Y9)

	BCAST(FMONTQINV, X8, Y8)
	BCAST(FMONT, X9, Y9)
	MONT(Y0, Y8, Y8, Y9, Y9)
	CANON(Y0)
	MONT(Y1, Y8, Y8, Y9, Y9)
	CANON(Y1)
	MONT(Y2, Y8, Y8, Y9, Y9)
	CANON(Y2)
	MONT(Y3, Y8, Y8, Y9, Y9)
	CANON(Y3)
	MONT(Y4, Y8, Y8, Y9, Y9)
	CANON(Y4)
	MONT(Y5, Y8, Y8, Y9, Y9)
	CANON(Y5)
	MONT(Y6, Y8, Y8, Y9, Y9)
	CANON(Y6)
	MONT(Y7, Y8, Y8, Y9, Y9)
	CANON(Y7)
	STORE8(DI, 128)

	ADDQ $32, DX
	CMPQ DX, $128
	JB   invOuter

	VZEROUPPER
	RET

// func polyMulMontAVX2(r, a, b *poly)
TEXT ·polyMulMontAVX2(SB), NOSPLIT, $0-24
	MOVQ r+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	BCAST(QMOD, X15, Y15)
	BCAST(QINV, X11, Y11)
	XORQ CX, CX

mulLoop:
	VMOVDQU (SI)(CX*1), Y0
	VMOVDQU (DX)(CX*1), Y1
	VPSRLQ  $32, Y0, Y2
	VPSRLQ  $32, Y1, Y3
	VPMULDQ Y1, Y0, Y0
	VPMULDQ Y3, Y2, Y2
	REDUCE64(Y0, Y2)
	CANON(Y0)
	VMOVDQU Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $1024
	JB      mulLoop

	VZEROUPPER
	RET

// func polyDotMontAVX2(r *poly, a, b []poly)
//
// Each coefficient's len(a) products accumulate in 64-bit lanes and are
// reduced once, as polyDotMontGeneric does.
TEXT ·polyDotMontAVX2(SB), NOSPLIT, $0-56
	MOVQ r+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), R8
	MOVQ b_base+32(FP), DX
	SHLQ $10, R8 // len(a) polys of 1024 bytes
	BCAST(QMOD, X15, Y15)
	BCAST(QINV, X11, Y11)
	XORQ CX, CX

dotOuter:
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2
	LEAQ  (SI)(CX*1), R9
	LEAQ  (DX)(CX*1), R10
	XORQ  BX, BX
	CMPQ  BX, R8
	JAE   dotReduce

dotInner:
	VMOVDQU (R9)(BX*1), Y4
	VMOVDQU (R10)(BX*1), Y5
	VPSRLQ  $32, Y4, Y6
	VPSRLQ  $32, Y5, Y7
	VPMULDQ Y5, Y4, Y4
	VPMULDQ Y7, Y6, Y6
	VPADDQ  Y4, Y0, Y0
	VPADDQ  Y6, Y2, Y2
	ADDQ    $1024, BX
	CMPQ    BX, R8
	JB      dotInner

dotReduce:
	REDUCE64(Y0, Y2)
	CANON(Y0)
	VMOVDQU Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, $1024
	JB      dotOuter

	VZEROUPPER
	RET
