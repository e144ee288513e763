#include "textflag.h"

// An AVX2 transcription of NormFill's uniform draws: SplitMix64's
// increment and finalizer, Float64's 53-bit mapping, and the angle
// 2*Pi*v, four Box-Muller pairs to a block. Every YMM operation applies
// one integer or IEEE operation to each 64-bit lane, so a lane computes
// exactly the scalar value for its input.
//
// Without the u > 0 redraw, pair k of a block drawn from state s takes
// u from s + (2k+1)*golden and v from s + (2k+2)*golden (uint64
// arithmetic). The lanes hold the pairs in the order (0, 2, 1, 3), so
// the in-lane unpacks of the u and angle vectors store each pair's
// (u, 2*Pi*v) in its own two slots.
//
//   - The finalizer's multiplies mod 2^64 are built from VPMULUDQ's
//     32x32->64 products: lo*Clo + ((hi*Clo + lo*Chi) << 32).
//   - x = z >> 11 is below 2^53. Its float64 is built exactly from its
//     two halves: OR each into the mantissa of 2^52 or 2^84 and subtract
//     that power, which gives lo and hi*2^32 exactly, and their sum, an
//     exact add, is the value CVTSQ2SD gives. The product by 2^-53 is
//     Float64's exact division by 2^53.
//   - 2*Pi is the float64 the constant expression 2*math.Pi rounds to.

#define K4(off, bits) \
	DATA uconst<>+(off+0)(SB)/8, $bits; \
	DATA uconst<>+(off+8)(SB)/8, $bits; \
	DATA uconst<>+(off+16)(SB)/8, $bits; \
	DATA uconst<>+(off+24)(SB)/8, $bits

#define UINC    uconst<>+0(SB)
#define VINC    uconst<>+32(SB)
#define STEP    uconst<>+64(SB)
#define C1LO    uconst<>+96(SB)
#define C1HI    uconst<>+128(SB)
#define C2LO    uconst<>+160(SB)
#define C2HI    uconst<>+192(SB)
#define LOMASK  uconst<>+224(SB)
#define TWO52   uconst<>+256(SB)
#define TWO84   uconst<>+288(SB)
#define INV53   uconst<>+320(SB)
#define TWOPI   uconst<>+352(SB)
DATA uconst<>+0(SB)/8, $0x9e3779b97f4a7c15  // u increments: 1, 5, 3, 7 times golden
DATA uconst<>+8(SB)/8, $0x1715609f7c746c69
DATA uconst<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA uconst<>+24(SB)/8, $0x538454127b096493
DATA uconst<>+32(SB)/8, $0x3c6ef372fe94f82a // v increments: 2, 6, 4, 8 times golden
DATA uconst<>+40(SB)/8, $0xb54cda58fbbee87e
DATA uconst<>+48(SB)/8, $0x78dde6e5fd29f054
DATA uconst<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
K4(64, 0xf1bbcdcbfa53e0a8)  // 8 times golden, one block
K4(96, 0x000000001ce4e5b9)  // 0xbf58476d1ce4e5b9, low half
K4(128, 0x00000000bf58476d) // high half
K4(160, 0x00000000133111eb) // 0x94d049bb133111eb, low half
K4(192, 0x0000000094d049bb) // high half
K4(224, 0x00000000ffffffff)
K4(256, 0x4330000000000000) // 2^52
K4(288, 0x4530000000000000) // 2^84
K4(320, 0x3ca0000000000000) // 2^-53
K4(352, 0x401921fb54442d18) // 2*Pi
GLOBL uconst<>(SB), RODATA, $384

// MULC sets Z to Z times the constant (HI, LO) mod 2^64, clobbering T1-T3.
#define MULC(Z, LO, HI, T1, T2, T3) \
	VPSRLQ   $32, Z, T1; \
	VPMULUDQ LO, T1, T1; \
	VPMULUDQ HI, Z, T2;  \
	VPADDQ   T2, T1, T1; \
	VPSLLQ   $32, T1, T1; \
	VPMULUDQ LO, Z, T3;  \
	VPADDQ   T3, T1, Z

// UNIFORM maps the states in Z to Float64's uniforms in Z: the SplitMix64
// finalizer, then (z >> 11) * 2^-53. Clobbers T1-T3.
#define UNIFORM(Z, T1, T2, T3) \
	VPSRLQ $30, Z, T1;                  \
	VPXOR  T1, Z, Z;                    \
	MULC(Z, C1LO, C1HI, T1, T2, T3);    \
	VPSRLQ $27, Z, T1;                  \
	VPXOR  T1, Z, Z;                    \
	MULC(Z, C2LO, C2HI, T1, T2, T3);    \
	VPSRLQ $31, Z, T1;                  \
	VPXOR  T1, Z, Z;                    \
	VPSRLQ $11, Z, Z;                   \
	VPAND  LOMASK, Z, T1;               \
	VPOR   TWO52, T1, T1;               \
	VSUBPD TWO52, T1, T1;               \
	VPSRLQ $32, Z, Z;                   \
	VPOR   TWO84, Z, Z;                 \
	VSUBPD TWO84, Z, Z;                 \
	VADDPD T1, Z, Z;                    \
	VMULPD INV53, Z, Z

// func uniformPairs4(dst *float64, n int, state uint64) int
//
// Writes (u, 2*Pi*v) pairs into dst in blocks of four pairs, eight
// elements, from state, while a whole block of n elements remains, and
// stops at the first block that holds a zero u, which the caller redraws
// in scalar code. Returns the elements written, which is also how many
// increments of the state they consumed.
//
// Register plan: Y8 u states, Y9 v states, Y10 the block step, Y11 zero,
// Y0 u, Y4 v then the angle, Y1-Y3 scratch, Y5/Y6 the stores.
TEXT ·uniformPairs4(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VPBROADCASTQ state+16(FP), Y0
	VPADDQ       UINC, Y0, Y8
	VPADDQ       VINC, Y0, Y9
	VMOVDQU      STEP, Y10
	VXORPD       Y11, Y11, Y11
	XORQ         AX, AX

uloop:
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  udone
	VMOVDQU   Y8, Y0
	UNIFORM(Y0, Y1, Y2, Y3)
	VCMPPD    $0, Y11, Y0, Y1        // u == 0
	VMOVMSKPD Y1, BX
	TESTL     BX, BX
	JNE       udone
	VMOVDQU   Y9, Y4
	UNIFORM(Y4, Y1, Y2, Y3)
	VMULPD    TWOPI, Y4, Y4          // 2*Pi*v
	VUNPCKLPD Y4, Y0, Y5             // pairs 0 and 1
	VUNPCKHPD Y4, Y0, Y6             // pairs 2 and 3
	VMOVUPD   Y5, (DI)(AX*8)
	VMOVUPD   Y6, 32(DI)(AX*8)
	VPADDQ    Y10, Y8, Y8
	VPADDQ    Y10, Y9, Y9
	ADDQ      $8, AX
	JMP       uloop

udone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
