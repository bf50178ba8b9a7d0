#include "textflag.h"

// MulMat's AVX2 kernel. Each vector lane is one element of c: the lane
// starts at +0 and, for q = 0, 1, …, k−1 in turn, adds the rounded
// product a[i][q]·b[q][j] (VMULPD, then VADDPD), which is the Go kernel's
// sum, operation for operation. No fused multiply-add may appear in this
// file: it rounds once where the Go kernel rounds twice.
//
// Rows of c are taken four at a time, in blocks of eight columns (eight
// accumulators, each loaded row piece of B serving four rows of A); the
// leftover rows one at a time, in blocks of 32 columns (eight
// accumulators). Leftover columns of either go four at a time under a
// lane mask, so a block never reads or writes past the end of a row.

// masks<> is four all-ones quadwords then four zero ones: the 32 bytes
// at masks<>+32−8r enable the first r lanes, for 1 ≤ r ≤ 4.
DATA masks<>+0x00(SB)/8, $-1
DATA masks<>+0x08(SB)/8, $-1
DATA masks<>+0x10(SB)/8, $-1
DATA masks<>+0x18(SB)/8, $-1
DATA masks<>+0x20(SB)/8, $0
DATA masks<>+0x28(SB)/8, $0
DATA masks<>+0x30(SB)/8, $0
DATA masks<>+0x38(SB)/8, $0
GLOBL masks<>(SB), RODATA|NOPTR, $64

// LANEMASK sets Y15 to the mask for the min(CX/8, 4) columns left in the
// row, CX > 0 being the bytes left. It clobbers AX, BX and CX.
#define LANEMASK \
	MOVQ    $32, BX;         \
	CMPQ    CX, BX;          \
	CMOVQGT BX, CX;          \
	NEGQ    CX;              \
	ADDQ    $32, CX;         \
	LEAQ    masks<>(SB), AX; \
	VMOVDQU (AX)(CX*1), Y15

// func mulMatAVX2(c, a, b []float64, m, k, n int)
//
// DI and SI point at the current rows of c and a, DX at b; R8 counts the
// rows left, R9 is k, R11 is n·8 (the row stride of b and c in bytes),
// R12 is k·8 and R13 3k·8 (strides to the rows of a), R14 is the block's
// first column of c and b in bytes. AX walks a row of A, BX a column
// block of B, CX counts the inner products.
TEXT ·mulMatAVX2(SB), NOSPLIT, $0-96
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ m+72(FP), R8
	MOVQ k+80(FP), R9
	MOVQ n+88(FP), R11
	SHLQ $3, R11
	MOVQ R9, R12
	SHLQ $3, R12
	LEAQ (R12)(R12*2), R13

rows4:
	CMPQ R8, $4
	JLT  rows1
	XORQ R14, R14

block4x8:
	MOVQ R11, CX
	SUBQ R14, CX
	CMPQ CX, $64
	JLT  tail4x4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), BX
	MOVQ   R9, CX

loop4x8:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (AX)(R12*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (AX)(R12*2), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (AX)(R13*1), Y13
	VMULPD       Y8, Y13, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y13, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         CX
	JNZ          loop4x8

	LEAQ    (DI)(R14*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    R11, AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	ADDQ    R11, AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	ADDQ    R11, AX
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	ADDQ    $64, R14
	JMP     block4x8

tail4x4:
	MOVQ   R11, CX
	SUBQ   R14, CX
	JLE    next4
	LANEMASK
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), BX
	MOVQ   R9, CX

loop4x4:
	VMASKMOVPD   (BX), Y15, Y8
	VBROADCASTSD (AX), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD (AX)(R12*1), Y10
	VMULPD       Y8, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (AX)(R12*2), Y11
	VMULPD       Y8, Y11, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (AX)(R13*1), Y12
	VMULPD       Y8, Y12, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         CX
	JNZ          loop4x4

	LEAQ       (DI)(R14*1), AX
	VMASKMOVPD Y0, Y15, (AX)
	ADDQ       R11, AX
	VMASKMOVPD Y1, Y15, (AX)
	ADDQ       R11, AX
	VMASKMOVPD Y2, Y15, (AX)
	ADDQ       R11, AX
	VMASKMOVPD Y3, Y15, (AX)
	ADDQ       $32, R14
	JMP        tail4x4

next4:
	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R12*4), SI
	SUBQ $4, R8
	JMP  rows4

rows1:
	TESTQ R8, R8
	JZ    done
	XORQ  R14, R14

block1x32:
	MOVQ   R11, CX
	SUBQ   R14, CX
	CMPQ   CX, $256
	JLT    tail1x4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), BX
	MOVQ   R9, CX

loop1x32:
	VBROADCASTSD (AX), Y8
	VMULPD       (BX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(BX), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(BX), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(BX), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(BX), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(BX), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(BX), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(BX), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         CX
	JNZ          loop1x32

	LEAQ    (DI)(R14*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	ADDQ    $256, R14
	JMP     block1x32

tail1x4:
	MOVQ   R11, CX
	SUBQ   R14, CX
	JLE    next1
	LANEMASK
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	LEAQ   (DX)(R14*1), BX
	MOVQ   R9, CX

loop1x4:
	VMASKMOVPD   (BX), Y15, Y8
	VBROADCASTSD (AX), Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $8, AX
	ADDQ         R11, BX
	DECQ         CX
	JNZ          loop1x4

	LEAQ       (DI)(R14*1), AX
	VMASKMOVPD Y0, Y15, (AX)
	ADDQ       $32, R14
	JMP        tail1x4

next1:
	ADDQ R11, DI
	ADDQ R12, SI
	DECQ R8
	JMP  rows1

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
