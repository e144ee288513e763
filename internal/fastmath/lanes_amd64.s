#include "textflag.h"

// Four-lane AVX2 transcriptions of the math package's Sincos, archLog and
// archExp, and of Box-Muller's Sqrt(-2*Log(u)) times Sincos(a) built from
// the first two (fastmath.go gives the argument for each). Every YMM operation
// applies one scalar IEEE operation to each 64-bit lane, in the library's
// order and with the library's constants, so a lane computes exactly what
// the scalar code computes for that lane's input. Lanes never interact.
//
// Each kernel walks x in blocks of four lanes from index 0 while a whole
// block remains, and stops at the first block with a lane outside the
// kernel's plain domain, returning how many elements it wrote (a multiple
// of the block). The Go wrappers hand that block and the tail to the
// library.

// lanes<> holds each constant replicated four times (32 bytes), so it can
// be a memory operand of a YMM instruction. The values are the bit
// patterns of the library's constants, which the library writes as decimal
// literals (math/sincos.go, math/sin.go, log_amd64.s, exp_amd64.s).
#define K4(off, bits) \
	DATA lanes<>+(off+0)(SB)/8, $bits; \
	DATA lanes<>+(off+8)(SB)/8, $bits; \
	DATA lanes<>+(off+16)(SB)/8, $bits; \
	DATA lanes<>+(off+24)(SB)/8, $bits

// Shared.
#define ABSMASK  lanes<>+0(SB)
#define SIGNMASK lanes<>+32(SB)
#define HALF     lanes<>+64(SB)
#define ONE      lanes<>+96(SB)
#define TWO      lanes<>+128(SB)
K4(0, 0x7fffffffffffffff)
K4(32, 0x8000000000000000)
K4(64, 0x3fe0000000000000)  // 0.5
K4(96, 0x3ff0000000000000)  // 1.0
K4(128, 0x4000000000000000) // 2.0

// Sincos (math/sincos.go, math/sin.go).
#define TRIGMAX  lanes<>+160(SB)
#define FOUROPI  lanes<>+192(SB)
#define PI4A     lanes<>+224(SB)
#define PI4B     lanes<>+256(SB)
#define PI4C     lanes<>+288(SB)
#define SIN0     lanes<>+320(SB)
#define SIN1     lanes<>+352(SB)
#define SIN2     lanes<>+384(SB)
#define SIN3     lanes<>+416(SB)
#define SIN4     lanes<>+448(SB)
#define SIN5     lanes<>+480(SB)
#define COS0     lanes<>+512(SB)
#define COS1     lanes<>+544(SB)
#define COS2     lanes<>+576(SB)
#define COS3     lanes<>+608(SB)
#define COS4     lanes<>+640(SB)
#define COS5     lanes<>+672(SB)
#define ONES32   lanes<>+704(SB)
K4(160, 0x41c0000000000000) // 1<<29, reduceThreshold
K4(192, 0x3ff45f306dc9c883) // 4/Pi
K4(224, 0x3fe921fb40000000) // PI4A 7.85398125648498535156e-1
K4(256, 0x3e64442d00000000) // PI4B 3.77489470793079817668e-8
K4(288, 0x3ce8469898cc5170) // PI4C 2.69515142907905952645e-15
K4(320, 0x3de5d8fd1fd19ccd) // _sin[0] 1.58962301576546568060e-10
K4(352, 0xbe5ae5e5a9291f5d) // _sin[1] -2.50507477628578072866e-8
K4(384, 0x3ec71de3567d48a1) // _sin[2] 2.75573136213857245213e-6
K4(416, 0xbf2a01a019bfdf03) // _sin[3] -1.98412698295895385996e-4
K4(448, 0x3f8111111110f7d0) // _sin[4] 8.33333333332211858878e-3
K4(480, 0xbfc5555555555548) // _sin[5] -1.66666666666666307295e-1
K4(512, 0xbda8fa49a0861a9b) // _cos[0] -1.13585365213876817300e-11
K4(544, 0x3e21ee9d7b4e3f05) // _cos[1] 2.08757008419747316778e-9
K4(576, 0xbe927e4f7eac4bc6) // _cos[2] -2.75573141792967388112e-7
K4(608, 0x3efa01a019c844f5) // _cos[3] 2.48015872888517045348e-5
K4(640, 0xbf56c16c16c14f91) // _cos[4] -1.38888888888730564116e-3
K4(672, 0x3fa555555555554b) // _cos[5] 4.16666666666665929218e-2
K4(704, 0x0000000100000001) // int32 ones

// archLog (log_amd64.s).
#define MINNORM  lanes<>+736(SB)
#define MAXFLT   lanes<>+768(SB)
#define MANTMASK lanes<>+800(SB)
#define TWO52    lanes<>+832(SB)
#define TWO52B   lanes<>+864(SB)
#define HSQRT2   lanes<>+896(SB)
#define LN2HI    lanes<>+928(SB)
#define LN2LO    lanes<>+960(SB)
#define L1       lanes<>+992(SB)
#define L2       lanes<>+1024(SB)
#define L3       lanes<>+1056(SB)
#define L4       lanes<>+1088(SB)
#define L5       lanes<>+1120(SB)
#define L6       lanes<>+1152(SB)
#define L7       lanes<>+1184(SB)
K4(736, 0x0010000000000000)  // smallest normal
K4(768, 0x7fefffffffffffff)  // MaxFloat64
K4(800, 0x000fffffffffffff)  // mantissa bits
K4(832, 0x4330000000000000)  // 2^52
K4(864, 0x43300000000003fe)  // 2^52 + 0x3FE
K4(896, 0x3fe6a09e667f3bcd)  // HSqrt2 7.07106781186547524401e-01
K4(928, 0x3fe62e42fee00000)  // Ln2Hi
K4(960, 0x3dea39ef35793c76)  // Ln2Lo
K4(992, 0x3fe5555555555593)  // L1
K4(1024, 0x3fd999999997fa04) // L2
K4(1056, 0x3fd2492494229359) // L3
K4(1088, 0x3fcc71c51d8e78af) // L4
K4(1120, 0x3fc7466496cb03de) // L5
K4(1152, 0x3fc39a09d078c69f) // L6
K4(1184, 0x3fc2f112df3e5244) // L7

// archExp, FMA variant (exp_amd64.s).
#define EXPMAX   lanes<>+1216(SB)
#define LOG2E    lanes<>+1248(SB)
#define LN2U     lanes<>+1280(SB)
#define LN2L     lanes<>+1312(SB)
#define SIXTEENTH lanes<>+1344(SB)
#define C2       lanes<>+1376(SB)
#define C3       lanes<>+1408(SB)
#define C4       lanes<>+1440(SB)
#define C5       lanes<>+1472(SB)
#define C6       lanes<>+1504(SB)
#define C7       lanes<>+1536(SB)
#define EXPBIAS  lanes<>+1568(SB)
K4(1216, 0x4085e00000000000) // 700
K4(1248, 0x3ff71547652b82fe) // LOG2E 1.4426950408889634073599246810018920
K4(1280, 0x3fe62e42fefa3000) // LN2U 0.69314718055966295651160180568695068359375
K4(1312, 0x3d53de6af278ece6) // LN2L 0.28235290563031577122588448175013436025525412068e-12
K4(1344, 0x3fb0000000000000) // 0.0625
K4(1376, 0x3fc5555555555555) // 1.6666666666666666667e-1
K4(1408, 0x3fa5555555555555) // 4.1666666666666666667e-2
K4(1440, 0x3f81111111111111) // 8.3333333333333333333e-3
K4(1472, 0x3f56c16c16c16c17) // 1.3888888888888888889e-3
K4(1504, 0x3f2a01a01a01a01a) // 1.9841269841269841270e-4
K4(1536, 0x3efa01a01a01a01a) // 2.4801587301587301587e-5
K4(1568, 0x00000000000003ff) // exponent bias

// Box-Muller.
#define MINUS2   lanes<>+1600(SB)
K4(1600, 0xc000000000000000) // -2.0
GLOBL lanes<>(SB), RODATA, $1632

// SINCOSCORE is math.Sincos on four lanes: Y0 = x and Y1 = |x|, both in
// the plain domain |x| < 2^29, where math.Sincos takes the Cody-Waite
// reduction. Per lane, the library's steps:
//
//	j = uint64(|x| * (4/Pi)); y = float64(j); if j odd { j++; y++ }
//	z = ((|x| - y*PI4A) - y*PI4B) - y*PI4C
//	cos = 1.0 - 0.5*zz + zz*zz*(((((c0*zz+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
//	sin = z + z*zz*(((((s0*zz+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
//
// then the octant ladder as bit operations. j is even after the increment,
// so with j mod 8 in {0, 2, 4, 6}: the library swaps sin and cos exactly
// when bit 1 of j is set, negates sin when bit 2 differs from the sign of
// x, and negates cos when bits 2 and 1 differ. The swap is a blend and the
// negations are sign-bit XORs, which move or sign-flip a value without
// rounding it. float64(j)+1 is exact for j < 2^31, so adding j&1 before
// the conversion gives the library's y++.
//
// Result: Y2 sin, Y3 cos. Reads Y14 (1.0) and Y13 (sign mask); clobbers
// Y4-Y12: X3 j as int32 lanes, Y4 y, Y5 z, Y6 zz, Y7/Y8 polynomials,
// Y9 cos, Y10 j as int64, Y11/Y12 sign masks. In order: j truncated,
// j += j&1, y; z and zz; the cos polynomial, zz*zz times it, then
// (1.0 - 0.5*zz) plus that, the cos; the sin polynomial, then
// z + (z*zz)*poly, the sin; then the ladder: Y11 bit 63 is j's bit 2,
// Y12 bit 63 is j's bit 1 (the swap), the two blends, the cos sign
// bit 2 ^ bit 1 and the sin sign bit 2 ^ sign(x).
#define SINCOSCORE \
	VMULPD      FOUROPI, Y1, Y2;     \
	VCVTTPD2DQY Y2, X3;              \
	VPAND       ONES32, X3, X4;      \
	VPADDD      X4, X3, X3;          \
	VCVTDQ2PD   X3, Y4;              \
	VMULPD      PI4A, Y4, Y5;        \
	VSUBPD      Y5, Y1, Y5;          \
	VMULPD      PI4B, Y4, Y6;        \
	VSUBPD      Y6, Y5, Y5;          \
	VMULPD      PI4C, Y4, Y6;        \
	VSUBPD      Y6, Y5, Y5;          \
	VMULPD      Y5, Y5, Y6;          \
	VMULPD      COS0, Y6, Y7;        \
	VADDPD      COS1, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      COS2, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      COS3, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      COS4, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      COS5, Y7, Y7;        \
	VMULPD      Y6, Y6, Y8;          \
	VMULPD      Y7, Y8, Y8;          \
	VMULPD      HALF, Y6, Y9;        \
	VSUBPD      Y9, Y14, Y9;         \
	VADDPD      Y8, Y9, Y9;          \
	VMULPD      SIN0, Y6, Y7;        \
	VADDPD      SIN1, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      SIN2, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      SIN3, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      SIN4, Y7, Y7;        \
	VMULPD      Y6, Y7, Y7;          \
	VADDPD      SIN5, Y7, Y7;        \
	VMULPD      Y6, Y5, Y8;          \
	VMULPD      Y7, Y8, Y8;          \
	VADDPD      Y8, Y5, Y8;          \
	VPMOVSXDQ   X3, Y10;             \
	VPSLLQ      $61, Y10, Y11;       \
	VPSLLQ      $62, Y10, Y12;       \
	VBLENDVPD   Y12, Y9, Y8, Y2;     \
	VBLENDVPD   Y12, Y8, Y9, Y3;     \
	VPXOR       Y11, Y12, Y12;       \
	VPXOR       Y0, Y11, Y11;        \
	VPAND       Y13, Y11, Y11;       \
	VPAND       Y13, Y12, Y12;       \
	VXORPD      Y11, Y2, Y2;         \
	VXORPD      Y12, Y3, Y3

// LOGCORE is archLog on four lanes: Y0 = x, positive, normal and finite,
// where archLog takes neither a special-case exit nor its denormal-blind
// Frexp. Per lane, archLog's steps: f1 = the mantissa with exponent 0.5,
// k = the unbiased exponent; the CMPSD-NLT mask subtracts 1 or 0 from k
// and multiplies f1 by 2 or 1; then the same polynomial and
// reconstruction. k is built as (2^52 + e) - (2^52 + 0x3FE) from the
// biased exponent e: both operands and the difference are exact, so it is
// the value CVTSL2SD produces. "f1 <= Sqrt2/2" is the library's "not
// Sqrt2/2 < f1" for every non-NaN f1.
//
// Result: Y2 log. Clobbers Y1 and Y3-Y6: Y1 f1 then f, Y3 mask then s,
// Y4 s2 then t1, Y5 s4 then t2, Y6 polynomial then hfsq. In order: f1
// and k; the adjustment, f = f1 - 1; s = f/(2+f), s2, s4; t1 from
// L7, L5, L3, L1 and t2 from L6, L4, L2; R = t1 + t2; hfsq = 0.5*f*f;
// then k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f).
#define LOGCORE \
	VANDPD MANTMASK, Y0, Y1;   \
	VORPD  HALF, Y1, Y1;       \
	VPSRLQ $52, Y0, Y2;        \
	VPOR   TWO52, Y2, Y2;      \
	VSUBPD TWO52B, Y2, Y2;     \
	VCMPPD $0x12, HSQRT2, Y1, Y3; \
	VANDPD ONE, Y3, Y3;        \
	VSUBPD Y3, Y2, Y2;         \
	VADDPD ONE, Y3, Y3;        \
	VMULPD Y3, Y1, Y1;         \
	VSUBPD ONE, Y1, Y1;        \
	VADDPD TWO, Y1, Y3;        \
	VDIVPD Y3, Y1, Y3;         \
	VMULPD Y3, Y3, Y4;         \
	VMULPD Y4, Y4, Y5;         \
	VMULPD L7, Y5, Y6;         \
	VADDPD L5, Y6, Y6;         \
	VMULPD Y5, Y6, Y6;         \
	VADDPD L3, Y6, Y6;         \
	VMULPD Y5, Y6, Y6;         \
	VADDPD L1, Y6, Y6;         \
	VMULPD Y6, Y4, Y4;         \
	VMULPD L6, Y5, Y6;         \
	VADDPD L4, Y6, Y6;         \
	VMULPD Y5, Y6, Y6;         \
	VADDPD L2, Y6, Y6;         \
	VMULPD Y6, Y5, Y5;         \
	VADDPD Y5, Y4, Y4;         \
	VMULPD HALF, Y1, Y6;       \
	VMULPD Y1, Y6, Y6;         \
	VADDPD Y6, Y4, Y4;         \
	VMULPD Y4, Y3, Y3;         \
	VMULPD LN2LO, Y2, Y4;      \
	VADDPD Y4, Y3, Y3;         \
	VSUBPD Y3, Y6, Y6;         \
	VSUBPD Y1, Y6, Y6;         \
	VMULPD LN2HI, Y2, Y2;      \
	VSUBPD Y6, Y2, Y2

// LOGDOMAIN sets Y1 to the lanes of Y0 that are positive, normal and
// finite (ordered compares, so NaN fails), clobbering Y2.
#define LOGDOMAIN \
	VCMPPD $0x1d, MINNORM, Y0, Y1; \
	VCMPPD $0x12, MAXFLT, Y0, Y2;  \
	VANDPD Y2, Y1, Y1

// func sincos4(x, sin, cos *float64, n int) int
//
// Domain: |x| < 2^29 (NaN fails the compare). Y15 holds the |x| mask,
// Y14 1.0 and Y13 the sign mask across the loop.
TEXT ·sincos4(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ sin+8(FP), DI
	MOVQ cos+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	VMOVUPD ABSMASK, Y15
	VMOVUPD ONE, Y14
	VMOVUPD SIGNMASK, Y13

sincosloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  sincosdone
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    Y15, Y0, Y1
	VCMPPD    $0x11, TRIGMAX, Y1, Y2 // |x| < 2^29, ordered
	VMOVMSKPD Y2, BX
	CMPL      BX, $0xf
	JNE       sincosdone

	SINCOSCORE
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     sincosloop

sincosdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func log4(x, out *float64, n int) int
//
// Domain: positive, normal and finite x.
TEXT ·log4(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX

logloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  logdone
	VMOVUPD   (SI)(AX*8), Y0
	LOGDOMAIN
	VMOVMSKPD Y1, BX
	CMPL      BX, $0xf
	JNE       logdone

	LOGCORE
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     logloop

logdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func boxMuller4(x *float64, n int) int
//
// In place over n elements of (u, a) pairs: a block is four pairs, eight
// elements. Domain: every u positive, normal and finite (LOGDOMAIN) and
// every |a| < 2^29 (Sincos's). Per pair, NormFloat64's steps:
//
//	m = Sqrt(-2 * Log(u)); s, c = Sincos(a); (u, a) = (m*c, m*s)
//
// with Log as LOGCORE, the product by -2 exact, VSQRTPD the correctly
// rounded square root that SQRTSD computes, Sincos as SINCOSCORE and
// two IEEE products. The unpacks only move values: VUNPCKLPD/VUNPCKHPD
// of the block's two loads give the lanes (u0, u2, u1, u3) and
// (a0, a2, a1, a3), and the same unpacks of the products put each pair's
// (m*c, m*s) back in its own slots. Lanes never interact, so their order
// changes no bit.
//
// Register plan: Y8/Y9 the loads, Y0 u then x, Y10 a, Y11 |a|, Y15 m,
// Y14 1.0 and Y13 the sign mask for SINCOSCORE, which clobbers Y2-Y12.
TEXT ·boxMuller4(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	VMOVUPD ONE, Y14
	VMOVUPD SIGNMASK, Y13

bmloop:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  bmdone
	VMOVUPD   (SI)(AX*8), Y8
	VMOVUPD   32(SI)(AX*8), Y9
	VUNPCKLPD Y9, Y8, Y0             // u
	VUNPCKHPD Y9, Y8, Y10            // a
	LOGDOMAIN
	VANDPD    ABSMASK, Y10, Y11      // |a|
	VCMPPD    $0x11, TRIGMAX, Y11, Y2 // |a| < 2^29, ordered
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL      BX, $0xf
	JNE       bmdone

	LOGCORE
	VMULPD  MINUS2, Y2, Y2           // -2 * Log(u)
	VSQRTPD Y2, Y15                  // m
	VMOVAPD Y10, Y0
	VMOVAPD Y11, Y1
	SINCOSCORE
	VMULPD    Y15, Y3, Y3            // m*c
	VMULPD    Y15, Y2, Y2            // m*s
	VUNPCKLPD Y2, Y3, Y4             // pairs 0 and 1
	VUNPCKHPD Y2, Y3, Y5             // pairs 2 and 3
	VMOVUPD   Y4, (SI)(AX*8)
	VMOVUPD   Y5, 32(SI)(AX*8)
	ADDQ      $8, AX
	JMP       bmloop

bmdone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func exp4(x, out *float64, n int) int
//
// Domain: |x| <= 700, where archExp takes neither a special-case exit nor
// its overflow, denormal or underflow branches: k = round(x*LOG2E) lies
// in [-1010, 1010], so the scale 2^k is a normal number. Per lane, the
// FMA variant math.Exp runs on every CPU with AVX and FMA: CVTSD2SL's
// round-to-nearest k, the fused Cody-Waite reduction, the fused
// polynomial, three fr*(2+fr) doublings with the fourth fused with the
// final +1, and the multiply by 2^k built from k's bits.
//
// Register plan: Y0 x then the result, Y1 scratch, X2 k (int32 lanes).
TEXT ·exp4(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX

exploop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  expdone
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    ABSMASK, Y0, Y1
	VCMPPD    $0x12, EXPMAX, Y1, Y1  // |x| <= 700, ordered
	VMOVMSKPD Y1, BX
	CMPL      BX, $0xf
	JNE       expdone

	VMULPD       LOG2E, Y0, Y1
	VCVTPD2DQY   Y1, X2              // k, rounded to nearest even
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD LN2U, Y1, Y0        // x - k*LN2U, fused
	VFNMADD231PD LN2L, Y1, Y0        // - k*LN2L, fused
	VMULPD       SIXTEENTH, Y0, Y0
	VMOVUPD      C7, Y1
	VFMADD213PD  C6, Y0, Y1
	VFMADD213PD  C5, Y0, Y1
	VFMADD213PD  C4, Y0, Y1
	VFMADD213PD  C3, Y0, Y1
	VFMADD213PD  C2, Y0, Y1
	VFMADD213PD  HALF, Y0, Y1
	VFMADD213PD  ONE, Y0, Y1
	VMULPD       Y1, Y0, Y0          // fr
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VFMADD213PD  ONE, Y1, Y0         // fr*(2+fr) + 1, fused

	VPMOVSXDQ X2, Y1
	VPADDQ    EXPBIAS, Y1, Y1
	VPSLLQ    $52, Y1, Y1            // 2^k
	VMULPD    Y1, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       exploop

expdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuFeatures() (avx2, fma bool)
//
// Both bits need max CPUID leaf >= 7, CPUID.1:ECX OSXSAVE(27) and AVX(28),
// and XCR0 XMM|YMM state enabled by the OS. avx2 is then CPUID.7.0:EBX
// AVX2(5) and fma is CPUID.1:ECX FMA(12).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, fma+1(FP)

	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JLT  done

	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  done

	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done

	TESTL $(1<<12), R8
	SETNE fma+1(FP)

	MOVL  $7, AX
	MOVL  $0, CX
	CPUID
	TESTL $(1<<5), BX
	SETNE avx2+0(FP)

done:
	RET
