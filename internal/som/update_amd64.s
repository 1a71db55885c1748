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
