#include "textflag.h"

// func updateAVX2(w, x []float64, h float64)
TEXT ·updateAVX2(SB), NOSPLIT, $0-56
	MOVQ         w_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD h+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail

	// PCALIGN puts the loop at a multiple of 64 bytes and raises the
	// function's alignment to 64, so the loop starts a cache line
	// wherever the linker places the function.
	PCALIGN $64

quads:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y2, Y1, Y1     // x − w
	VMULPD  Y0, Y1, Y1     // (x − w)·h
	VADDPD  Y1, Y2, Y1     // w + (x − w)·h
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      quads

tail:
	CMPQ AX, CX
	JAE  done

ones:
	VMOVSD (SI)(AX*8), X1
	VMOVSD (DI)(AX*8), X2
	VSUBSD X2, X1, X1
	VMULSD X0, X1, X1
	VADDSD X1, X2, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     ones

done:
	VZEROUPPER
	RET

// lanes holds lane l's bit of bmuAVX2's live mask in quadword l: a
// quadword ANDed with the broadcast mask equals it when lane l is live.
DATA lanes<>+0x00(SB)/8, $0x01
DATA lanes<>+0x08(SB)/8, $0x02
DATA lanes<>+0x10(SB)/8, $0x04
DATA lanes<>+0x18(SB)/8, $0x08
DATA lanes<>+0x20(SB)/8, $0x10
DATA lanes<>+0x28(SB)/8, $0x20
DATA lanes<>+0x30(SB)/8, $0x40
DATA lanes<>+0x38(SB)/8, $0x80
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// PAIR adds the squares of coordinates j and j+1 of the eight units,
// at byte offset off from SI (units a…a+3) and DI (units b…b+3), to
// Y1 and Y2, coordinate j first. Each quad loads two coordinates of
// its units 0 and 2 into the halves of one register and of units 1
// and 3 into another; VUNPCKLPD then gathers coordinate j of units
// 0–3 in lane order, and VUNPCKHPD coordinate j+1.
#define PAIR(off) \
	VMOVUPD      off(SI), X6;              \
	VINSERTF128  $1, off(SI)(DX*2), Y6, Y6; \
	VMOVUPD      off(SI)(DX*1), X7;        \
	VINSERTF128  $1, off(SI)(R8*1), Y7, Y7; \
	VUNPCKLPD    Y7, Y6, Y8;               \
	VUNPCKHPD    Y7, Y6, Y9;               \
	VMOVUPD      off(DI), X10;             \
	VINSERTF128  $1, off(DI)(DX*2), Y10, Y10; \
	VMOVUPD      off(DI)(DX*1), X11;       \
	VINSERTF128  $1, off(DI)(R8*1), Y11, Y11; \
	VUNPCKLPD    Y11, Y10, Y12;            \
	VUNPCKHPD    Y11, Y10, Y13;            \
	VBROADCASTSD off(R9), Y14;             \
	VSUBPD       Y8, Y14, Y8;              \
	VSUBPD       Y12, Y14, Y12;            \
	VBROADCASTSD off+8(R9), Y14;           \
	VSUBPD       Y9, Y14, Y9;              \
	VSUBPD       Y13, Y14, Y13;            \
	VMULPD       Y8, Y8, Y8;               \
	VMULPD       Y12, Y12, Y12;            \
	VMULPD       Y9, Y9, Y9;               \
	VMULPD       Y13, Y13, Y13;            \
	VADDPD       Y8, Y1, Y1;               \
	VADDPD       Y12, Y2, Y2;              \
	VADDPD       Y9, Y1, Y1;               \
	VADDPD       Y13, Y2, Y2

// func bmuAVX2(sums *[8]float64, x, w []float64, boff int, bound float64, live uint64) (left uint64, coords int)
TEXT ·bmuAVX2(SB), NOSPLIT, $0-96
	MOVQ         x_base+8(FP), R9
	MOVQ         x_len+16(FP), CX
	MOVQ         w_base+32(FP), SI
	MOVQ         boff+56(FP), DI
	LEAQ         (SI)(DI*8), DI
	LEAQ         (CX*8), DX        // one unit's bytes
	LEAQ         (DX)(DX*2), R8    // three units' bytes
	VBROADCASTSD bound+64(FP), Y0

	// Y3 and Y4 hold all ones in the live lanes of each quad.
	MOVQ         live+72(FP), AX
	VMOVQ        AX, X4
	VPBROADCASTQ X4, Y4
	VPAND        lanes<>+0x00(SB), Y4, Y3
	VPCMPEQQ     lanes<>+0x00(SB), Y3, Y3
	VPAND        lanes<>+0x20(SB), Y4, Y4
	VPCMPEQQ     lanes<>+0x20(SB), Y4, Y4

	// Y1 and Y2 are the two quads' sums; Y5 counts, per lane pair
	// (l, l+4), the live lanes' runs of four coordinates.
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VPXOR  Y5, Y5, Y5
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     quad

	// PCALIGN puts the loop at a multiple of 64 bytes, as in
	// updateAVX2.
	PCALIGN $64

block:
	VPADDQ  Y3, Y4, Y6
	VPADDQ  Y6, Y6, Y6
	VPSUBQ  Y6, Y5, Y5
	PAIR(0)
	PAIR(16)
	PAIR(32)
	PAIR(48)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R9

	// Drop the lanes whose sum exceeds the bound (GT_OQ: a NaN sum
	// stays live), and stop once none is left.
	VCMPPD  $0x1e, Y0, Y1, Y6
	VCMPPD  $0x1e, Y0, Y2, Y7
	VANDNPD Y3, Y6, Y3
	VANDNPD Y4, Y7, Y4
	VPOR    Y3, Y4, Y6
	VPTEST  Y6, Y6
	JZ      done
	DECQ    BX
	JNZ     block

quad:
	// Four more coordinates when dim mod 8 is 4 or more, with no test.
	TESTQ  $4, CX
	JZ     done
	VPADDQ Y3, Y4, Y6
	VPSUBQ Y6, Y5, Y5
	PAIR(0)
	PAIR(16)

done:
	MOVQ         sums+0(FP), AX
	VMOVUPD      Y1, (AX)
	VMOVUPD      Y2, 32(AX)
	VMOVMSKPD    Y3, AX
	VMOVMSKPD    Y4, CX
	SHLQ         $4, CX
	ORQ          CX, AX
	MOVQ         AX, left+80(FP)
	VEXTRACTI128 $1, Y5, X6
	VPADDQ       X6, X5, X5
	VPSHUFD      $0x4e, X5, X6
	VPADDQ       X6, X5, X5
	VMOVQ        X5, AX
	SHLQ         $2, AX
	MOVQ         AX, coords+88(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
