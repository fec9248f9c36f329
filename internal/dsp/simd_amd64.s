//go:build amd64

#include "textflag.h"

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func addIntoAVX2(dst, src []complex128)
//
// dst[i] += src[i]. Lanes are independent doubles; VADDPD performs the
// same IEEE addition the scalar body does, so results are bit-identical.
TEXT ·addIntoAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), DX
	MOVQ DX, CX
	SHRQ $1, CX        // pairs of complex128 = 32-byte chunks
	JZ   tail

loop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop

tail:
	ANDQ $1, DX
	JZ   done
	VMOVUPD (DI), X0
	VMOVUPD (SI), X1
	VADDPD  X1, X0, X0
	VMOVUPD X0, (DI)

done:
	VZEROUPPER
	RET

// func addF64AVX2(dst, src []float64)
//
// dst[i] += src[i] over independent double lanes, four per 32-byte
// chunk with a scalar-double tail for the up-to-three leftovers.
// VADDPD/VADDSD perform the same IEEE addition the scalar body does,
// so results are bit-identical.
TEXT ·addF64AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), DX
	MOVQ DX, CX
	SHRQ $2, CX        // quads of float64 = 32-byte chunks
	JZ   tail

loop:
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop

tail:
	ANDQ $3, DX
	JZ   done

tailloop:
	VMOVSD (DI), X0
	VMOVSD (SI), X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   DX
	JNZ    tailloop

done:
	VZEROUPPER
	RET

// func axpyIntoAVX2(dst, src []complex128, c complex128)
//
// dst[i] += src[i]·c with the product fused exactly as the scalar
// body: prod = swap(src)·ci (one VMULPD), then VFMADDSUB231PD computes
// src·cr − prod on real lanes and src·cr + prod on imaginary lanes in
// one fused instruction — tr = FMA(sr, cr, −si·ci), ti = FMA(si, cr,
// sr·ci) — and the accumulate stays a separate VADDPD, matching the
// scalar `dst[i] += complex(tr, ti)`. The main loop is unrolled to two
// independent 32-byte chunks with offset addressing, cutting the loop
// bookkeeping roughly in half on this store-throughput-bound kernel.
// Requires FMA3 (dispatched on simdFMA).
TEXT ·axpyIntoAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), DX
	VBROADCASTSD c_real+48(FP), Y2 // [cr cr cr cr]
	VBROADCASTSD c_imag+56(FP), Y3 // [ci ci ci ci]
	XORQ AX, AX
	MOVQ DX, CX
	SHRQ $2, CX // 64-byte chunks of four complex
	JZ   rest

loop:
	VMOVUPD        (SI)(AX*1), Y0     // [sr0 si0 sr1 si1]
	VPERMILPD      $0x5, Y0, Y1       // [si0 sr0 si1 sr1]
	VMULPD         Y3, Y1, Y1         // [si·ci, sr·ci, …]
	VFMADDSUB231PD Y2, Y0, Y1         // [sr·cr−si·ci, si·cr+sr·ci, …]
	VMOVUPD        (DI)(AX*1), Y4
	VADDPD         Y4, Y1, Y1
	VMOVUPD        Y1, (DI)(AX*1)
	VMOVUPD        32(SI)(AX*1), Y5
	VPERMILPD      $0x5, Y5, Y6
	VMULPD         Y3, Y6, Y6
	VFMADDSUB231PD Y2, Y5, Y6
	VMOVUPD        32(DI)(AX*1), Y7
	VADDPD         Y7, Y6, Y6
	VMOVUPD        Y6, 32(DI)(AX*1)
	ADDQ           $64, AX
	DECQ           CX
	JNZ            loop

rest:
	ADDQ  AX, DI
	ADDQ  AX, SI
	TESTQ $2, DX
	JZ    tail
	VMOVUPD        (SI), Y0
	VPERMILPD      $0x5, Y0, Y1
	VMULPD         Y3, Y1, Y1
	VFMADDSUB231PD Y2, Y0, Y1
	VMOVUPD        (DI), Y4
	VADDPD         Y4, Y1, Y1
	VMOVUPD        Y1, (DI)
	ADDQ           $32, DI
	ADDQ           $32, SI

tail:
	ANDQ $1, DX
	JZ   done
	VMOVUPD        (SI), X0
	VPERMILPD      $0x1, X0, X1
	VMULPD         X3, X1, X1
	VFMADDSUB231PD X2, X0, X1
	VMOVUPD        (DI), X4
	VADDPD         X4, X1, X1
	VMOVUPD        X1, (DI)

done:
	VZEROUPPER
	RET

// AXPY_TERM adds one term's product into the accumulator acc: the
// source chunk at off(src)(AX*1) times (cr, ci), with axpyIntoAVX2's
// fused expansion — prod = swap(src)·ci, then VFMADDSUB231PD gives
// FMA(sr, cr, −si·ci) on real lanes and FMA(si, cr, sr·ci) on imaginary
// lanes — and the add kept separate. t1/t2 are scratch; the operand
// width (Y or X) follows the registers passed.
#define AXPY_TERM(off, src, cr, ci, acc, t1, t2) \
	VMOVUPD        off(src)(AX*1), t1; \
	VPERMILPD      $0x5, t1, t2;       \
	VMULPD         ci, t2, t2;         \
	VFMADDSUB231PD cr, t1, t2;         \
	VADDPD         t2, acc, acc

// AXPY_TERMS2..4 add the first two, three or four terms (sources R8,
// R9, R10, R11; coefficients Y8/Y9, Y10/Y11, Y12/Y13, Y14/Y15) into
// acc in term order.
#define AXPY_TERMS2(off, acc, t1, t2, c0r, c0i, c1r, c1i) \
	AXPY_TERM(off, R8, c0r, c0i, acc, t1, t2); \
	AXPY_TERM(off, R9, c1r, c1i, acc, t1, t2)

#define AXPY_TERMS3(off, acc, t1, t2, c0r, c0i, c1r, c1i, c2r, c2i) \
	AXPY_TERMS2(off, acc, t1, t2, c0r, c0i, c1r, c1i); \
	AXPY_TERM(off, R10, c2r, c2i, acc, t1, t2)

#define AXPY_TERMS4(off, acc, t1, t2, c0r, c0i, c1r, c1i, c2r, c2i, c3r, c3i) \
	AXPY_TERMS3(off, acc, t1, t2, c0r, c0i, c1r, c1i, c2r, c2i); \
	AXPY_TERM(off, R11, c3r, c3i, acc, t1, t2)

// func axpyMultiAVX2(dst []complex128, terms *AxpyTerm, m int)
//
// dst[i] += terms[t].Src[i]·terms[t].C for t = 0, …, m−1 in order,
// m ∈ {2, 3, 4}: each dst chunk is loaded once, every term's product
// (exactly axpyIntoAVX2's) is added into it in term order, and it is
// stored once — the per-element operation sequence of m sequential
// AxpyInto calls, with the accumulator kept in registers. AxpyTerm is
// {Src ptr, len, cap; C real, imag}: 40 bytes, C at +24. The main loop
// runs four independent 32-byte chunks (Y0, Y3, Y6, Y7) per iteration,
// so four add chains overlap; leftover chunks run one at a time and a
// single-complex tail uses the X registers. Requires FMA3 (dispatched
// on simdFMA).
TEXT ·axpyMultiAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), DX
	MOVQ         terms+24(FP), BX
	MOVQ         m+32(FP), CX
	MOVQ         0(BX), R8
	VBROADCASTSD 24(BX), Y8
	VBROADCASTSD 32(BX), Y9
	MOVQ         40(BX), R9
	VBROADCASTSD 64(BX), Y10
	VBROADCASTSD 72(BX), Y11
	XORQ         AX, AX
	CMPQ         CX, $2
	JEQ          two
	MOVQ         80(BX), R10
	VBROADCASTSD 104(BX), Y12
	VBROADCASTSD 112(BX), Y13
	CMPQ         CX, $3
	JEQ          three
	MOVQ         120(BX), R11
	VBROADCASTSD 144(BX), Y14
	VBROADCASTSD 152(BX), Y15

four:
	MOVQ DX, CX
	SHRQ $3, CX // 128-byte blocks of eight complex
	JZ   four_rest

four_loop:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y3
	VMOVUPD 64(DI)(AX*1), Y6
	VMOVUPD 96(DI)(AX*1), Y7
	AXPY_TERMS4(0, Y0, Y1, Y2, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	AXPY_TERMS4(32, Y3, Y4, Y5, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	AXPY_TERMS4(64, Y6, Y1, Y2, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	AXPY_TERMS4(96, Y7, Y4, Y5, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y3, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ    $128, AX
	DECQ    CX
	JNZ     four_loop

four_rest:
	MOVQ DX, CX
	SHRQ $1, CX
	ANDQ $3, CX // leftover 32-byte chunks of two complex
	JZ   four_tail

four_pair:
	VMOVUPD (DI)(AX*1), Y0
	AXPY_TERMS4(0, Y0, Y1, Y2, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     four_pair

four_tail:
	TESTQ   $1, DX
	JZ      done
	VMOVUPD (DI)(AX*1), X0
	AXPY_TERMS4(0, X0, X1, X2, X8, X9, X10, X11, X12, X13, X14, X15)
	VMOVUPD X0, (DI)(AX*1)
	JMP     done

three:
	MOVQ DX, CX
	SHRQ $3, CX // 128-byte blocks of eight complex
	JZ   three_rest

three_loop:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y3
	VMOVUPD 64(DI)(AX*1), Y6
	VMOVUPD 96(DI)(AX*1), Y7
	AXPY_TERMS3(0, Y0, Y1, Y2, Y8, Y9, Y10, Y11, Y12, Y13)
	AXPY_TERMS3(32, Y3, Y4, Y5, Y8, Y9, Y10, Y11, Y12, Y13)
	AXPY_TERMS3(64, Y6, Y1, Y2, Y8, Y9, Y10, Y11, Y12, Y13)
	AXPY_TERMS3(96, Y7, Y4, Y5, Y8, Y9, Y10, Y11, Y12, Y13)
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y3, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ    $128, AX
	DECQ    CX
	JNZ     three_loop

three_rest:
	MOVQ DX, CX
	SHRQ $1, CX
	ANDQ $3, CX // leftover 32-byte chunks of two complex
	JZ   three_tail

three_pair:
	VMOVUPD (DI)(AX*1), Y0
	AXPY_TERMS3(0, Y0, Y1, Y2, Y8, Y9, Y10, Y11, Y12, Y13)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     three_pair

three_tail:
	TESTQ   $1, DX
	JZ      done
	VMOVUPD (DI)(AX*1), X0
	AXPY_TERMS3(0, X0, X1, X2, X8, X9, X10, X11, X12, X13)
	VMOVUPD X0, (DI)(AX*1)
	JMP     done

two:
	MOVQ DX, CX
	SHRQ $3, CX // 128-byte blocks of eight complex
	JZ   two_rest

two_loop:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y3
	VMOVUPD 64(DI)(AX*1), Y6
	VMOVUPD 96(DI)(AX*1), Y7
	AXPY_TERMS2(0, Y0, Y1, Y2, Y8, Y9, Y10, Y11)
	AXPY_TERMS2(32, Y3, Y4, Y5, Y8, Y9, Y10, Y11)
	AXPY_TERMS2(64, Y6, Y1, Y2, Y8, Y9, Y10, Y11)
	AXPY_TERMS2(96, Y7, Y4, Y5, Y8, Y9, Y10, Y11)
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y3, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ    $128, AX
	DECQ    CX
	JNZ     two_loop

two_rest:
	MOVQ DX, CX
	SHRQ $1, CX
	ANDQ $3, CX // leftover 32-byte chunks of two complex
	JZ   two_tail

two_pair:
	VMOVUPD (DI)(AX*1), Y0
	AXPY_TERMS2(0, Y0, Y1, Y2, Y8, Y9, Y10, Y11)
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     two_pair

two_tail:
	TESTQ   $1, DX
	JZ      done
	VMOVUPD (DI)(AX*1), X0
	AXPY_TERMS2(0, X0, X1, X2, X8, X9, X10, X11)
	VMOVUPD X0, (DI)(AX*1)

done:
	VZEROUPPER
	RET

// func scaleIntoAVX2(dst, src []complex128, c complex128)
//
// dst[i] = src[i]·c with exactly axpyIntoAVX2's fused product
// expansion, minus the accumulate: the stored value is the (tr, ti)
// AxpyInto would add. Requires FMA3.
TEXT ·scaleIntoAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), DX
	VBROADCASTSD c_real+48(FP), Y2 // [cr cr cr cr]
	VBROADCASTSD c_imag+56(FP), Y3 // [ci ci ci ci]
	MOVQ DX, CX
	SHRQ $1, CX
	JZ   tail

loop:
	VMOVUPD        (SI), Y0     // [sr0 si0 sr1 si1]
	VPERMILPD      $0x5, Y0, Y1 // [si0 sr0 si1 sr1]
	VMULPD         Y3, Y1, Y1   // [si·ci, sr·ci, …]
	VFMADDSUB231PD Y2, Y0, Y1   // [sr·cr−si·ci, si·cr+sr·ci, …]
	VMOVUPD        Y1, (DI)
	ADDQ           $32, DI
	ADDQ           $32, SI
	DECQ           CX
	JNZ            loop

tail:
	ANDQ $1, DX
	JZ   done
	VMOVUPD        (SI), X0
	VPERMILPD      $0x1, X0, X1
	VMULPD         X3, X1, X1
	VFMADDSUB231PD X2, X0, X1
	VMOVUPD        X1, (DI)

done:
	VZEROUPPER
	RET

// func stageAVX2(re, im []float64, start, h, count, blocks int, twr, twi []float64)
//
// Groups j in [0, count) of one radix-2 butterfly stage in each of
// blocks sub-blocks 2h apart, over the planar halves a = x[sb:],
// b = x[sb+h:] with sb = start + i·2h:
//
//	t  = w·b   (complex, expanded as in stageScalar)
//	b' = a − t
//	a' = a + t
//
// Every sub-block reads the same twiddles tw[0:count]. Caller
// guarantees count a multiple of 4 and the slices long enough for the
// last sub-block. Each j is an independent lane running the scalar
// expressions verbatim.
TEXT ·stageAVX2(SB), NOSPLIT, $0-128
	MOVQ count+64(FP), CX
	TESTQ CX, CX
	JEQ  done
	MOVQ blocks+72(FP), DX
	TESTQ DX, DX
	JEQ  done
	MOVQ re_base+0(FP), R8
	MOVQ im_base+24(FP), R9
	MOVQ start+48(FP), AX
	LEAQ (R8)(AX*8), R8   // a_re
	LEAQ (R9)(AX*8), R9   // a_im
	MOVQ h+56(FP), BX
	LEAQ (R8)(BX*8), R10  // b_re
	LEAQ (R9)(BX*8), R11  // b_im
	SHLQ $4, BX           // sub-block stride: 2h elements, in bytes
	MOVQ twr_base+80(FP), R12
	MOVQ twi_base+104(FP), R13

block:
	XORQ AX, AX // group index: data and twiddles restart per sub-block

loop:
	VMOVUPD (R12)(AX*8), Y0 // wr
	VMOVUPD (R13)(AX*8), Y1 // wi
	VMOVUPD (R10)(AX*8), Y2 // xr
	VMOVUPD (R11)(AX*8), Y3 // xi
	VMULPD  Y2, Y0, Y4      // wr·xr
	VMULPD  Y3, Y1, Y5      // wi·xi
	VSUBPD  Y5, Y4, Y4      // tr = wr·xr − wi·xi
	VMULPD  Y3, Y0, Y5      // wr·xi
	VMULPD  Y2, Y1, Y6      // wi·xr
	VADDPD  Y6, Y5, Y5      // ti = wr·xi + wi·xr
	VMOVUPD (R8)(AX*8), Y2  // ur
	VMOVUPD (R9)(AX*8), Y3  // ui
	VSUBPD  Y4, Y2, Y6      // ur − tr
	VMOVUPD Y6, (R10)(AX*8)
	VSUBPD  Y5, Y3, Y6      // ui − ti
	VMOVUPD Y6, (R11)(AX*8)
	VADDPD  Y4, Y2, Y6      // ur + tr
	VMOVUPD Y6, (R8)(AX*8)
	VADDPD  Y5, Y3, Y6      // ui + ti
	VMOVUPD Y6, (R9)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      loop

	ADDQ BX, R8
	ADDQ BX, R9
	ADDQ BX, R10
	ADDQ BX, R11
	DECQ DX
	JNZ  block

	VZEROUPPER

done:
	RET

// func stagePairAVX2(re, im []float64, start, h, count, blocks int, w1r, w1i, w2r, w2i []float64)
//
// Groups j in [0, count) of BatchPlan's fused stage pair in each of
// blocks sub-blocks 4h apart: the four planar quarters a/b/c/d at
// re[sb:], re[sb+h:], re[sb+2h:], re[sb+3h:] (and likewise im), with
// sb = start + i·4h, flow through their two size-s butterflies
// (twiddles w1[j]) and two size-2s butterflies (twiddles w2[j] and
// w2[h+j]) with intermediates in registers. Caller guarantees count a
// multiple of 4 and the slices long enough for the last sub-block.
// Every butterfly computes the scalar stagePairScalar expressions lane
// for lane.
// Register budget: the fourteen array pointers (four planar quarters
// per plane plus six twiddle pointers) take every general-purpose
// register except BP/SP, so the loop advances the pointers in place.
// The four local stack slots hold what a sub-block restarts from: the
// end sentinel (w1r + 8·count) at 0(SP), the sub-blocks left at 8(SP),
// and the next sub-block's re and im start pointers at 16(SP) and
// 24(SP). Each sub-block reloads the six twiddle pointers from the
// arguments.
TEXT ·stagePairAVX2(SB), NOSPLIT, $32-176
	MOVQ count+64(FP), AX
	TESTQ AX, AX
	JEQ  done
	MOVQ blocks+72(FP), BX
	TESTQ BX, BX
	JEQ  done
	MOVQ BX, 8(SP)
	MOVQ w1r_base+80(FP), BX
	LEAQ (BX)(AX*8), AX
	MOVQ AX, 0(SP)
	MOVQ start+48(FP), AX
	MOVQ re_base+0(FP), R8
	LEAQ (R8)(AX*8), R8
	MOVQ R8, 16(SP)
	MOVQ im_base+24(FP), R12
	LEAQ (R12)(AX*8), R12
	MOVQ R12, 24(SP)

block:
	MOVQ h+56(FP), AX
	MOVQ 16(SP), R8       // a_re
	LEAQ (R8)(AX*8), R9   // b_re
	LEAQ (R9)(AX*8), R10  // c_re
	LEAQ (R10)(AX*8), R11 // d_re
	MOVQ 24(SP), R12      // a_im
	LEAQ (R12)(AX*8), R13 // b_im
	LEAQ (R13)(AX*8), R14 // c_im
	LEAQ (R14)(AX*8), R15 // d_im
	MOVQ w1r_base+80(FP), BX
	MOVQ w1i_base+104(FP), CX
	MOVQ w2r_base+128(FP), DX
	MOVQ w2i_base+152(FP), SI
	LEAQ (DX)(AX*8), DI // w2b real = w2r[h:]
	LEAQ (SI)(AX*8), AX // w2b imag = w2i[h:]

loop:
	VMOVUPD (BX), Y0  // wr
	VMOVUPD (CX), Y1  // wi
	VMOVUPD (R9), Y2  // xr = b_re
	VMOVUPD (R13), Y3 // xi = b_im
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VSUBPD  Y5, Y4, Y4 // t1r
	VMULPD  Y3, Y0, Y5
	VMULPD  Y2, Y1, Y6
	VADDPD  Y6, Y5, Y5 // t1i
	VMOVUPD (R8), Y2   // ur = a_re
	VMOVUPD (R12), Y3  // ui = a_im
	VSUBPD  Y4, Y2, Y6 // b1r = ur − t1r
	VSUBPD  Y5, Y3, Y7 // b1i
	VADDPD  Y4, Y2, Y8 // a1r
	VADDPD  Y5, Y3, Y9 // a1i

	VMOVUPD (R11), Y2     // yr = d_re
	VMOVUPD (R15), Y3     // yi = d_im
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y10
	VSUBPD  Y10, Y4, Y4   // t2r
	VMULPD  Y3, Y0, Y10
	VMULPD  Y2, Y1, Y11
	VADDPD  Y11, Y10, Y10 // t2i
	VMOVUPD (R10), Y2     // vr = c_re
	VMOVUPD (R14), Y3     // vi = c_im
	VSUBPD  Y4, Y2, Y11   // d1r = vr − t2r
	VSUBPD  Y10, Y3, Y12  // d1i
	VADDPD  Y4, Y2, Y13   // c1r
	VADDPD  Y10, Y3, Y14  // c1i

	VMOVUPD (DX), Y0   // pr = w2a real
	VMOVUPD (SI), Y1   // pi
	VMULPD  Y13, Y0, Y2
	VMULPD  Y14, Y1, Y3
	VSUBPD  Y3, Y2, Y2 // t3r = pr·c1r − pi·c1i
	VMULPD  Y14, Y0, Y3
	VMULPD  Y13, Y1, Y4
	VADDPD  Y4, Y3, Y3 // t3i = pr·c1i + pi·c1r
	VSUBPD  Y2, Y8, Y4 // c' = a1r − t3r
	VMOVUPD Y4, (R10)
	VSUBPD  Y3, Y9, Y4
	VMOVUPD Y4, (R14)
	VADDPD  Y2, Y8, Y4 // a' = a1r + t3r
	VMOVUPD Y4, (R8)
	VADDPD  Y3, Y9, Y4
	VMOVUPD Y4, (R12)

	VMOVUPD (DI), Y0   // qr = w2b real
	VMOVUPD (AX), Y1   // qi = w2b imag
	VMULPD  Y11, Y0, Y2
	VMULPD  Y12, Y1, Y3
	VSUBPD  Y3, Y2, Y2 // t4r
	VMULPD  Y12, Y0, Y3
	VMULPD  Y11, Y1, Y4
	VADDPD  Y4, Y3, Y3 // t4i
	VSUBPD  Y2, Y6, Y4 // d' = b1r − t4r
	VMOVUPD Y4, (R11)
	VSUBPD  Y3, Y7, Y4
	VMOVUPD Y4, (R15)
	VADDPD  Y2, Y6, Y4 // b' = b1r + t4r
	VMOVUPD Y4, (R9)
	VADDPD  Y3, Y7, Y4
	VMOVUPD Y4, (R13)

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, AX
	CMPQ BX, 0(SP)
	JB   loop

	MOVQ h+56(FP), AX
	SHLQ $5, AX // sub-block stride: 4h elements, in bytes
	ADDQ AX, 16(SP)
	ADDQ AX, 24(SP)
	DECQ 8(SP)
	JNZ  block

	VZEROUPPER

done:
	RET

// func synthChains8AVX2(dst []complex128, st *[32]float64, dLr, dLi, mag float64, steps int)
//
// Eight interleaved phase-recurrence chains in planar registers:
// Y0/Y1 = zr, Y2/Y3 = zi, Y4/Y5 = dr, Y6/Y7 = di (chains 0-3 / 4-7).
// Per step each chain emits complex(zr·mag, zi·mag) and advances
//
//	z = z·d:  zr' = FMA(zr, dr, −zi·di), zi' = FMA(zr, di, zi·dr)
//	d = d·dL: dr' = FMA(dr, dLr, −di·dLi), di' = FMA(dr, dLi, di·dLr)
//
// — exactly the math.FMA expressions of the scalar body, one rounding
// per VFMSUB231PD/VFMADD231PD, so both paths are bit-identical. The
// planar layout needs zero shuffles in the arithmetic; only the store
// interleaves (unpack + 128-bit permute) the planar lanes into
// complex128 pairs. No renormalization here — the driver renormalizes
// the state between bounded-step calls.
TEXT ·synthChains8AVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ st+24(FP), SI
	VBROADCASTSD dLr+32(FP), Y8
	VBROADCASTSD dLi+40(FP), Y9
	VBROADCASTSD mag+48(FP), Y10
	MOVQ steps+56(FP), CX
	VMOVUPD 0(SI), Y0    // zr 0-3
	VMOVUPD 32(SI), Y1   // zr 4-7
	VMOVUPD 64(SI), Y2   // zi 0-3
	VMOVUPD 96(SI), Y3   // zi 4-7
	VMOVUPD 128(SI), Y4  // dr 0-3
	VMOVUPD 160(SI), Y5  // dr 4-7
	VMOVUPD 192(SI), Y6  // di 0-3
	VMOVUPD 224(SI), Y7  // di 4-7

loop:
	// Emit chains 0-3: interleave (zr·mag, zi·mag) into dst[0:2].
	VMULPD     Y10, Y0, Y11
	VMULPD     Y10, Y2, Y12
	VUNPCKLPD  Y12, Y11, Y13     // [r0 i0 r2 i2]
	VUNPCKHPD  Y12, Y11, Y14     // [r1 i1 r3 i3]
	VPERM2F128 $0x20, Y14, Y13, Y15
	VMOVUPD    Y15, 0(DI)        // [r0 i0 r1 i1]
	VPERM2F128 $0x31, Y14, Y13, Y15
	VMOVUPD    Y15, 32(DI)       // [r2 i2 r3 i3]

	// Emit chains 4-7 into dst[2:4].
	VMULPD     Y10, Y1, Y11
	VMULPD     Y10, Y3, Y12
	VUNPCKLPD  Y12, Y11, Y13
	VUNPCKHPD  Y12, Y11, Y14
	VPERM2F128 $0x20, Y14, Y13, Y15
	VMOVUPD    Y15, 64(DI)
	VPERM2F128 $0x31, Y14, Y13, Y15
	VMOVUPD    Y15, 96(DI)

	// z ← z·d, chains 0-3.
	VMULPD      Y6, Y2, Y11 // zi·di
	VMULPD      Y4, Y2, Y12 // zi·dr
	VFMSUB231PD Y4, Y0, Y11 // zr·dr − zi·di
	VFMADD231PD Y6, Y0, Y12 // zr·di + zi·dr
	VMOVAPD     Y11, Y0
	VMOVAPD     Y12, Y2

	// z ← z·d, chains 4-7.
	VMULPD      Y7, Y3, Y11
	VMULPD      Y5, Y3, Y12
	VFMSUB231PD Y5, Y1, Y11
	VFMADD231PD Y7, Y1, Y12
	VMOVAPD     Y11, Y1
	VMOVAPD     Y12, Y3

	// d ← d·dL, chains 0-3.
	VMULPD      Y9, Y6, Y11 // di·dLi
	VMULPD      Y8, Y6, Y12 // di·dLr
	VFMSUB231PD Y8, Y4, Y11 // dr·dLr − di·dLi
	VFMADD231PD Y9, Y4, Y12 // dr·dLi + di·dLr
	VMOVAPD     Y11, Y4
	VMOVAPD     Y12, Y6

	// d ← d·dL, chains 4-7.
	VMULPD      Y9, Y7, Y11
	VMULPD      Y8, Y7, Y12
	VFMSUB231PD Y8, Y5, Y11
	VFMADD231PD Y9, Y5, Y12
	VMOVAPD     Y11, Y5
	VMOVAPD     Y12, Y7

	ADDQ $128, DI
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, 0(SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	VMOVUPD Y4, 128(SI)
	VMOVUPD Y5, 160(SI)
	VMOVUPD Y6, 192(SI)
	VMOVUPD Y7, 224(SI)
	VZEROUPPER
	RET

// func maxPowerAVX2(re, im []float64) float64
//
// max(re[i]² + im[i]²) over the slices. Per-lane powers use the exact
// scalar expression (two multiplies, one add, same order); VMAXPD of
// non-negative, NaN-free values returns the same maximum value as the
// scalar strictly-greater walk regardless of evaluation order, so the
// result is bit-identical. Caller guarantees len >= 4 — one seed quad,
// any further full quads, then a scalar tail — so the short ±2-bin
// payload windows (5 elements) vectorize too.
TEXT ·maxPowerAVX2(SB), NOSPLIT, $0-56
	MOVQ re_base+0(FP), DI
	MOVQ im_base+24(FP), SI
	MOVQ re_len+8(FP), DX
	VMOVUPD (DI), Y1
	VMOVUPD (SI), Y2
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y1, Y0 // running 4-lane max
	MOVQ    DX, CX
	SHRQ    $2, CX     // total quads (>= 1)
	MOVQ    $4, AX
	DECQ    CX
	JZ      reduce

loop:
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y2, Y1, Y1
	VMAXPD  Y1, Y0, Y0
	ADDQ    $4, AX
	DECQ    CX
	JNZ     loop

reduce:
	// Horizontal reduce the 4 lanes.
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0

	// Scalar tail: up to 3 leftover elements.
	CMPQ AX, DX
	JGE  done

tail:
	VMOVSD (DI)(AX*8), X1
	VMOVSD (SI)(AX*8), X2
	VMULSD X1, X1, X1
	VMULSD X2, X2, X2
	VADDSD X2, X1, X1
	VMAXSD X1, X0, X0
	INCQ   AX
	CMPQ   AX, DX
	JL     tail

done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// ZIG_CONSTS loads the ziggurat kernels' constants: Y8 the layer mask,
// Y9 the 2⁵² exponent pattern (as an integer and as a double), Y10 the
// sign bit, Y11 zero.
#define ZIG_CONSTS \
	MOVQ         $127, AX;                \
	VMOVQ        AX, X8;                  \
	VPBROADCASTQ X8, Y8;                  \
	MOVQ         $0x4330000000000000, AX; \
	VMOVQ        AX, X9;                  \
	VPBROADCASTQ X9, Y9;                  \
	MOVQ         $0x8000000000000000, AX; \
	VMOVQ        AX, X10;                 \
	VPBROADCASTQ X10, Y10;                \
	VPXOR        Y11, Y11, Y11

// ZIG_CLASSIFY runs the branchless ziggurat fast path on the four words
// in u (destroyed; the caller has stored them):
//
//	i   = u & 127                  (layer index)
//	j   = int64(u) >> 11           (signed 53-bit magnitude)
//	mag = |j|
//	accept iff mag < zigK[i];  value = float64(j) · zigW[i]
//
// It stores the four values at vaddr and shifts the four acceptance
// bits into acc from the top (acc >> 4 | bits << 60), so after sixteen
// quads the first quad's bits sit lowest. R8 points at zigKW, whose
// entry i is the pair (zigK[i], zigW[i]): one 16-byte load per lane
// fetches both, and two unpacks sort them into a threshold and a scale
// register — cheaper than two gathers. With s = (u < 0 ? all ones : 0),
// mag = ((u ^ s) >> 11) − s, since ^u >> 11 is |j| − 1 for negative u.
// int64→float64 uses the 2⁵² mantissa-or trick on mag, exact for
// mag < 2⁵² — every accepted draw, since zigK < 2⁵² (a rejected lane's
// value is unused) — and u's sign bit is j's. An accepted value is one
// exact conversion and one VMULPD, bit-identical to the scalar
// float64(j)·zigW[i]. Y8–Y11 hold the ZIG_CONSTS; Y12–Y15 and BX are
// scratch.
#define ZIG_CLASSIFY(u, vaddr, acc) \
	VPAND        Y8, u, Y12;               \
	VPADDQ       Y12, Y12, Y12;            \
	VMOVQ        X12, BX;                  \
	VMOVDQU      (R8)(BX*8), X14;          \
	VPEXTRQ      $1, X12, BX;              \
	VMOVDQU      (R8)(BX*8), X15;          \
	VEXTRACTI128 $1, Y12, X12;             \
	VMOVQ        X12, BX;                  \
	VINSERTI128  $1, (R8)(BX*8), Y14, Y14; \
	VPEXTRQ      $1, X12, BX;              \
	VINSERTI128  $1, (R8)(BX*8), Y15, Y15; \
	VPUNPCKLQDQ  Y15, Y14, Y12;            \
	VPUNPCKHQDQ  Y15, Y14, Y14;            \
	VPCMPGTQ     u, Y11, Y13;              \
	VPAND        Y10, u, Y15;              \
	VPXOR        Y13, u, u;                \
	VPSRLQ       $11, u, u;                \
	VPSUBQ       Y13, u, u;                \
	VPCMPGTQ     u, Y12, Y12;              \
	VMOVMSKPD    Y12, BX;                  \
	VPOR         Y9, u, u;                 \
	VSUBPD       Y9, u, u;                 \
	VXORPD       Y15, u, u;                \
	VMULPD       Y14, u, u;                \
	VMOVUPD      u, vaddr;                 \
	SHRQ         $4, acc;                  \
	SHLQ         $60, BX;                  \
	ORQ          BX, acc

// ZIG_FLUSH stores acc, the acceptance bits of a chunk that ends
// partway (at word AX, AX mod 64 != 0), after shifting its quads down
// to bit 0: at byte off + (AX/64)<<shift from DX, the bitmap's base. CX
// is scratch.
#define ZIG_FLUSH(acc, shift, off) \
	MOVQ AX, CX;      \
	ANDQ $63, CX;     \
	NEGQ CX;          \
	ADDQ $64, CX;     \
	SHRQ CX, acc;     \
	MOVQ AX, CX;      \
	SHRQ $6, CX;      \
	SHLQ $shift, CX;  \
	MOVQ acc, off(DX)(CX*1)

// XO_GEN runs one exact Stream.Uint64 step on the state in R10–R13 and
// leaves the word in R14 (R15 scratch).
#define XO_GEN \
	MOVQ R10, R14; \
	ADDQ R13, R14; \
	ROLQ $23, R14; \
	ADDQ R10, R14; \
	MOVQ R11, R15; \
	SHLQ $17, R15; \
	XORQ R10, R12; \
	XORQ R11, R13; \
	XORQ R12, R11; \
	XORQ R13, R10; \
	XORQ R15, R12; \
	ROLQ $45, R13

// func zigFillAVX2(dst, words []float64, bits []uint64, st *Stream, kw *[2 * zigLayers]uint64)
//
// The single-stream block generator of NormBatch: len(dst) (a multiple
// of four) xoshiro256++ words, four at a time, each generated serially
// by the exact Stream.Uint64 recurrence in integer registers — the
// chain issues on other ports than the vector classification beside
// it. Word p's bits go to words[p], its fast-path value
// (ZIG_CLASSIFY) to dst[p], and whether it accepts to bit p%64 of
// bits[p/64]; bits past len(dst) in the last word are zero. The kernel
// never exits early: every word is classified as if it were a draw,
// and the Go bitmap walk (zigWalk) decides which words are
// draws. The advanced state is written back to st. len(words) >=
// len(dst) and len(bits) >= ceil(len(dst)/64).
TEXT ·zigFillAVX2(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ words_base+24(FP), SI
	MOVQ bits_base+48(FP), DX
	MOVQ kw+80(FP), R8
	MOVQ st+72(FP), BX
	MOVQ 0(BX), R10  // s0
	MOVQ 8(BX), R11  // s1
	MOVQ 16(BX), R12 // s2
	MOVQ 24(BX), R13 // s3
	ZIG_CONSTS

	XORQ AX, AX // word cursor
	CMPQ AX, dst_len+8(FP)
	JGE  done

loop:
	// Four words, packed into Y0 low to high.
	XO_GEN
	VMOVQ R14, X6
	XO_GEN
	VPINSRQ $1, R14, X6, X6
	XO_GEN
	VMOVQ R14, X7
	XO_GEN
	VPINSRQ $1, R14, X7, X7
	VINSERTI128 $1, X7, Y6, Y0
	VMOVDQU Y0, (SI)(AX*8)

	ZIG_CLASSIFY(Y0, (DI)(AX*8), R9)
	ADDQ  $4, AX
	TESTQ $63, AX
	JNZ   more
	MOVQ  AX, CX
	SHRQ  $3, CX
	MOVQ  R9, -8(DX)(CX*1) // chunk AX/64 − 1 is complete

more:
	CMPQ  AX, dst_len+8(FP)
	JLT   loop
	TESTQ $63, AX
	JZ    done
	ZIG_FLUSH(R9, 3, 0)

done:
	MOVQ st+72(FP), BX
	MOVQ R10, 0(BX)
	MOVQ R11, 8(BX)
	MOVQ R12, 16(BX)
	MOVQ R13, 24(BX)
	VZEROUPPER
	RET

// func zigCompactAVX2(out, vals []float64, keep []uint64, perm *[16][8]uint32) int
//
// Copies vals[p] to out, in order, for every p whose bit in keep (bit
// p%64 of keep[p/64]) is set, and returns how many it copied. Per quad
// of vals the keep nibble selects a VPERMD pattern from perm that packs
// the kept values to the front; all four lanes are stored at the output
// cursor, which then advances by the nibble's population count. Each
// keep word is loaded once and shifted down a nibble per quad. len(vals)
// is a multiple of four and len(out) >= len(vals); out may start at
// vals' first element, since every store lands at or before the quad
// just loaded. Lanes stored past the returned count hold leftovers.
TEXT ·zigCompactAVX2(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ vals_base+24(FP), SI
	MOVQ vals_len+32(FP), DX
	MOVQ keep_base+48(FP), R8
	MOVQ perm+72(FP), R9
	XORQ AX, AX // input cursor
	XORQ BX, BX // output cursor
	CMPQ AX, DX
	JGE  compactdone

compactchunk:
	MOVQ    (R8), R10 // the chunk's keep bits
	ADDQ    $8, R8
	MOVQ    DX, CX
	SUBQ    AX, CX
	SHRQ    $2, CX
	MOVQ    $16, R11
	CMPQ    CX, R11
	CMOVQGT R11, CX // quads in this chunk

compactquad:
	MOVQ    R10, R12
	SHLQ    $5, R12
	ANDQ    $0x1e0, R12 // nibble · 32: the pattern's offset
	VMOVDQU (R9)(R12*1), Y1
	VPERMD  (SI)(AX*8), Y1, Y0
	VMOVDQU Y0, (DI)(BX*8)
	POPCNTQ R12, R12
	ADDQ    R12, BX
	SHRQ    $4, R10
	ADDQ    $4, AX
	DECQ    CX
	JNZ     compactquad
	CMPQ    AX, DX
	JLT     compactchunk

compactdone:
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// XO_STEP runs one xoshiro256++ step in each lane of the state
// registers Y0–Y3 (s0–s3 of four streams) — Stream.Uint64's recurrence,
// rotates as shift pairs — and leaves the four words in r (Y12/Y13
// scratch).
#define XO_STEP(r) \
	VPADDQ Y3, Y0, r;    \
	VPSLLQ $23, r, Y12;  \
	VPSRLQ $41, r, r;    \
	VPOR   Y12, r, r;    \
	VPADDQ Y0, r, r;     \
	VPSLLQ $17, Y1, Y12; \
	VPXOR  Y0, Y2, Y2;   \
	VPXOR  Y1, Y3, Y3;   \
	VPXOR  Y2, Y1, Y1;   \
	VPXOR  Y3, Y0, Y0;   \
	VPXOR  Y12, Y2, Y2;  \
	VPSLLQ $45, Y3, Y13; \
	VPSRLQ $19, Y3, Y3;  \
	VPOR   Y13, Y3, Y3

// func zigLanesAVX2(lanes *[16]uint64, words, vals []float64, bits []uint64, stride, n int, kw *[2 * zigLayers]uint64)
//
// The four-stream block generator of NormBatchLanes. lanes holds four
// xoshiro256++ states side by side (s0 of streams 0–3, then s1, s2,
// s3), so one ymm register carries one state word of every stream and
// each XO_STEP advances all four. Per block of four steps the 4×4 words
// (lane = stream, register = step) are transposed so each register
// holds four consecutive words of one stream; each is stored, run
// through ZIG_CLASSIFY and its values stored, stream l's at
// words/vals[l·stride + p], exactly as zigFillAVX2 lays out one stream.
// Acceptance bits go to a per-stream bitmap, interleaved by chunk:
// bits[4c + l] bit b is stream l's word 64c + b. n (a multiple of four,
// at most stride) steps run; the advanced states are written back to
// lanes.
//
// Registers: Y0–Y3 the states, Y4–Y7 a block's words, Y8–Y11 the
// ZIG_CONSTS; SI/DI walk stream 0's words/vals, R10 and R11 are the
// stride and three strides in bytes, AX the step cursor, R12–R15 the
// four streams' bits of the current chunk, DX the bitmap.
TEXT ·zigLanesAVX2(SB), NOSPLIT, $0-104
	MOVQ    lanes+0(FP), BX
	VMOVDQU 0(BX), Y0
	VMOVDQU 32(BX), Y1
	VMOVDQU 64(BX), Y2
	VMOVDQU 96(BX), Y3
	MOVQ    words_base+8(FP), SI
	MOVQ    vals_base+32(FP), DI
	MOVQ    bits_base+56(FP), DX
	MOVQ    stride+80(FP), R10
	SHLQ    $3, R10
	LEAQ    (R10)(R10*2), R11
	MOVQ    kw+96(FP), R8
	ZIG_CONSTS

	XORQ AX, AX
	CMPQ AX, n+88(FP)
	JGE  lanesdone

lanesloop:
	XO_STEP(Y4)
	XO_STEP(Y5)
	XO_STEP(Y6)
	XO_STEP(Y7)

	// Transpose: Y4–Y7 become streams 0–3, four steps each.
	VPUNPCKLQDQ Y5, Y4, Y12 // s0w0 s0w1 | s2w0 s2w1
	VPUNPCKHQDQ Y5, Y4, Y13 // s1w0 s1w1 | s3w0 s3w1
	VPUNPCKLQDQ Y7, Y6, Y14 // s0w2 s0w3 | s2w2 s2w3
	VPUNPCKHQDQ Y7, Y6, Y15 // s1w2 s1w3 | s3w2 s3w3
	VPERM2I128  $0x20, Y14, Y12, Y4
	VPERM2I128  $0x20, Y15, Y13, Y5
	VPERM2I128  $0x31, Y14, Y12, Y6
	VPERM2I128  $0x31, Y15, Y13, Y7
	VMOVDQU     Y4, (SI)
	VMOVDQU     Y5, (SI)(R10*1)
	VMOVDQU     Y6, (SI)(R10*2)
	VMOVDQU     Y7, (SI)(R11*1)

	ZIG_CLASSIFY(Y4, (DI), R12)
	ZIG_CLASSIFY(Y5, (DI)(R10*1), R13)
	ZIG_CLASSIFY(Y6, (DI)(R10*2), R14)
	ZIG_CLASSIFY(Y7, (DI)(R11*1), R15)
	ADDQ  $32, SI
	ADDQ  $32, DI
	ADDQ  $4, AX
	TESTQ $63, AX
	JNZ   lanesmore
	MOVQ  AX, CX
	SHRQ  $1, CX // 32 bytes per chunk, one past chunk AX/64 − 1
	MOVQ  R12, -32(DX)(CX*1)
	MOVQ  R13, -24(DX)(CX*1)
	MOVQ  R14, -16(DX)(CX*1)
	MOVQ  R15, -8(DX)(CX*1)

lanesmore:
	CMPQ  AX, n+88(FP)
	JLT   lanesloop
	TESTQ $63, AX
	JZ    lanesdone
	ZIG_FLUSH(R12, 5, 0)
	ZIG_FLUSH(R13, 5, 8)
	ZIG_FLUSH(R14, 5, 16)
	ZIG_FLUSH(R15, 5, 24)

lanesdone:
	MOVQ    lanes+0(FP), BX
	VMOVDQU Y0, 0(BX)
	VMOVDQU Y1, 32(BX)
	VMOVDQU Y2, 64(BX)
	VMOVDQU Y3, 96(BX)
	VZEROUPPER
	RET

// FRONT_LOAD broadcasts prefix value k of the current sub-block,
// (vr, vi)[rev[sb/z + k]] with the table entry at k4(R13), into the
// planar quads at the local slots dr and di.
#define FRONT_LOAD(k4, dr, di) \
	MOVL         k4(R13), AX;     \
	VBROADCASTSD (R14)(AX*8), Y0; \
	VMOVUPD      Y0, dr;          \
	VBROADCASTSD (R15)(AX*8), Y1; \
	VMOVUPD      Y1, di

// FRONT_V runs the size-2z butterfly of two broadcast values: with
// the quads vA and vB in local slots and w1 in Y14/Y15, t = w1·vB
// (expanded as in frontScalar), a = vA + t, b = vA − t. Y0/Y1 are
// scratch.
#define FRONT_V(vAr, vAi, vBr, vBi, ar, ai, br, bi) \
	VMULPD  vBr, Y14, Y0; \
	VMULPD  vBi, Y15, Y1; \
	VSUBPD  Y1, Y0, Y0;   \
	VMULPD  vBi, Y14, Y1; \
	VMULPD  vBr, Y15, ar; \
	VADDPD  ar, Y1, Y1;   \
	VADDPD  vAr, Y0, ar;  \
	VADDPD  vAi, Y1, ai;  \
	VMOVUPD vAr, br;      \
	VSUBPD  Y0, br, br;   \
	VMOVUPD vAi, bi;      \
	VSUBPD  Y1, bi, bi

// FRONT_TW computes t = w·x into Y0/Y1 for the twiddle quads wr, wi in
// memory and x in registers, clobbering xr.
#define FRONT_TW(wr, wi, xr, xi) \
	VMULPD wr, xr, Y0; \
	VMULPD wi, xi, Y1; \
	VSUBPD Y1, Y0, Y0; \
	VMULPD wr, xi, Y1; \
	VMULPD wi, xr, xr; \
	VADDPD xr, Y1, Y1

// FRONT_BF runs one butterfly in registers: t = w·x, then u + t into
// (ur, ui) and u − t into (dr, di), which may be x's registers.
#define FRONT_BF(wr, wi, ur, ui, xr, xi, dr, di) \
	FRONT_TW(wr, wi, xr, xi); \
	VSUBPD Y0, ur, dr;        \
	VSUBPD Y1, ui, di;        \
	VADDPD Y0, ur, ur;        \
	VADDPD Y1, ui, ui

// FRONT_OUT runs one size-8z butterfly and stores u + t at (lor, loi)
// and u − t at (hir, hii); xr is scratch once t is formed.
#define FRONT_OUT(wr, wi, ur, ui, xr, xi, lor, loi, hir, hii) \
	FRONT_TW(wr, wi, xr, xi); \
	VSUBPD  Y0, ur, xr;       \
	VMOVUPD xr, hir;          \
	VSUBPD  Y1, ui, xr;       \
	VMOVUPD xr, hii;          \
	VADDPD  Y0, ur, xr;       \
	VMOVUPD xr, lor;          \
	VADDPD  Y1, ui, xr;       \
	VMOVUPD xr, loi

// func frontAVX2(re, im []float64, base, span, z int, vr, vi []float64, rev []int32, tw []float64)
//
// BatchPlan's front pass over the span/(8z) sub-blocks of
// [base, base+span), z a power of two >= 4: the sub-block at sb
// broadcasts its eight prefix values (vr, vi)[rev[sb/z + k]] into
// planar quads in the locals (0(BX)–511(BX), value k's real quad at
// 64k), then runs frontScalar's butterflies for four consecutive j at a
// time — size 2z on the broadcasts (FRONT_V), size 4z on each half
// (FRONT_BF), size 8z into the stores (FRONT_OUT) — every butterfly
// with frontScalar's expressions, lane for lane. tw holds the
// fourteen twiddle quads of each group of four j back to back (see
// NewBatchPlan). Sixteen registers do not hold both halves' size-4z
// outputs, so B and D wait in 512(BX)–639(BX) while the upper half is
// formed. BX is the locals' first 32-byte boundary: a quad that
// straddles a cache line costs two loads, and the loop reads the
// locals as operands throughout. The caller guarantees the bounds
// (BatchPlan.front).
//
// Registers: DI/SI point at offset j of the sub-block's re/im, R8/R9
// at offset 4z + j; R10 and R11 are z and 3z in bytes, so the eight
// offsets kz + j are (DI), (DI)(R10*1), (DI)(R10*2), (DI)(R11*1) and
// likewise from R8. BX holds the locals, R12 walks tw, R13 walks
// rev, R14/R15 are vr/vi, CX counts groups of four and DX sub-blocks.
TEXT ·frontAVX2(SB), NOSPLIT, $672-168
	LEAQ  31(SP), BX
	ANDQ  $~31, BX
	MOVQ  z+64(FP), R10
	BSFQ  R10, CX
	SHLQ  $3, R10
	LEAQ  (R10)(R10*2), R11
	MOVQ  base+48(FP), AX
	MOVQ  re_base+0(FP), DI
	LEAQ  (DI)(AX*8), DI
	MOVQ  im_base+24(FP), SI
	LEAQ  (SI)(AX*8), SI
	LEAQ  (DI)(R10*4), R8
	LEAQ  (SI)(R10*4), R9
	SHRQ  CX, AX // base/z
	MOVQ  rev_base+120(FP), R13
	LEAQ  (R13)(AX*4), R13
	MOVQ  vr_base+72(FP), R14
	MOVQ  vi_base+96(FP), R15
	MOVQ  span+56(FP), DX
	SHRQ  CX, DX
	SHRQ  $3, DX // sub-blocks
	TESTQ DX, DX
	JEQ   done

sub:
	FRONT_LOAD(0, 0(BX), 32(BX))
	FRONT_LOAD(4, 64(BX), 96(BX))
	FRONT_LOAD(8, 128(BX), 160(BX))
	FRONT_LOAD(12, 192(BX), 224(BX))
	FRONT_LOAD(16, 256(BX), 288(BX))
	FRONT_LOAD(20, 320(BX), 352(BX))
	FRONT_LOAD(24, 384(BX), 416(BX))
	FRONT_LOAD(28, 448(BX), 480(BX))
	MOVQ tw_base+144(FP), R12
	MOVQ z+64(FP), CX
	SHRQ $2, CX

quad:
	VMOVUPD 0(R12), Y14  // w1r
	VMOVUPD 32(R12), Y15 // w1i

	// Lower half: a, b from (v0, v1) and c, d from (v2, v3); then
	// A, C = a ± w2[j]·c and B, D = b ± w2[z+j]·d.
	FRONT_V(0(BX), 32(BX), 64(BX), 96(BX), Y2, Y3, Y4, Y5)
	FRONT_V(128(BX), 160(BX), 192(BX), 224(BX), Y6, Y7, Y8, Y9)
	FRONT_BF(64(R12), 96(R12), Y2, Y3, Y6, Y7, Y6, Y7)
	FRONT_BF(128(R12), 160(R12), Y4, Y5, Y8, Y9, Y8, Y9)
	VMOVUPD Y4, 512(BX)
	VMOVUPD Y5, 544(BX)
	VMOVUPD Y8, 576(BX)
	VMOVUPD Y9, 608(BX)

	// Upper half: e, f from (v4, v5), g, h from (v6, v7); then
	// E, G = e ± w2[j]·g and F, H = f ± w2[z+j]·h.
	FRONT_V(256(BX), 288(BX), 320(BX), 352(BX), Y4, Y5, Y8, Y9)
	FRONT_V(384(BX), 416(BX), 448(BX), 480(BX), Y10, Y11, Y12, Y13)
	FRONT_BF(64(R12), 96(R12), Y4, Y5, Y10, Y11, Y10, Y11)
	FRONT_BF(128(R12), 160(R12), Y8, Y9, Y12, Y13, Y12, Y13)

	// Size 8z: (A, E) to j and 4z+j with w3[j], (C, G) to 2z+j and
	// 6z+j with w3[2z+j], (B, F) to z+j and 5z+j with w3[z+j],
	// (D, H) to 3z+j and 7z+j with w3[3z+j].
	FRONT_OUT(192(R12), 224(R12), Y2, Y3, Y4, Y5, (DI), (SI), (R8), (R9))
	FRONT_OUT(320(R12), 352(R12), Y6, Y7, Y10, Y11, (DI)(R10*2), (SI)(R10*2), (R8)(R10*2), (R9)(R10*2))
	VMOVUPD 512(BX), Y2
	VMOVUPD 544(BX), Y3
	FRONT_OUT(256(R12), 288(R12), Y2, Y3, Y8, Y9, (DI)(R10*1), (SI)(R10*1), (R8)(R10*1), (R9)(R10*1))
	VMOVUPD 576(BX), Y6
	VMOVUPD 608(BX), Y7
	FRONT_OUT(384(R12), 416(R12), Y6, Y7, Y12, Y13, (DI)(R11*1), (SI)(R11*1), (R8)(R11*1), (R9)(R11*1))

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $448, R12
	DECQ CX
	JNZ  quad

	// The low pointers moved z elements on; the next sub-block starts
	// 8z past the last one's start, 3z past the high pointers.
	LEAQ (R8)(R11*1), DI
	LEAQ (R9)(R11*1), SI
	LEAQ (DI)(R10*4), R8
	LEAQ (SI)(R10*4), R9
	ADDQ $32, R13
	DECQ DX
	JNZ  sub

	VZEROUPPER

done:
	RET

// func addScaledFloatsAVX2(dst []complex128, src []float64, s float64)
//
// dst[i] += complex(s·src[2i], s·src[2i+1]) — component-wise, so the
// kernel is a scaled float64 add over 2·len(dst) doubles: one VMULPD
// rounding for s·src and one VADDPD for the accumulate, exactly the
// scalar body's unfused expression per element. Caller guarantees
// len(dst) >= 2.
TEXT ·addScaledFloatsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), DX
	VBROADCASTSD s+48(FP), Y2
	MOVQ DX, CX
	SHRQ $1, CX // 32-byte chunks of two complex

loop:
	VMOVUPD (SI), Y0
	VMULPD  Y2, Y0, Y0
	VMOVUPD (DI), Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop

	ANDQ $1, DX
	JZ   done
	VMOVUPD (SI), X0
	VMULPD  X2, X0, X0
	VMOVUPD (DI), X1
	VADDPD  X1, X0, X0
	VMOVUPD X0, (DI)

done:
	VZEROUPPER
	RET

// func dechirpAVX2(re, im []float64, sym, down []complex128)
//
// Planar complex product re+i·im = sym·down, four elements per
// iteration: unpack splits the interleaved inputs into real/imag
// vectors in permuted lane order [0 2 1 3], the product runs the
// scalar expressions lane-wise (unfused multiplies, same order), and
// one VPERMPD per output restores element order before the planar
// store. Caller guarantees len(sym) a positive multiple of 4.
TEXT ·dechirpAVX2(SB), NOSPLIT, $0-96
	MOVQ re_base+0(FP), DI
	MOVQ im_base+24(FP), R8
	MOVQ sym_base+48(FP), SI
	MOVQ down_base+72(FP), DX
	MOVQ sym_len+56(FP), CX
	SHRQ $2, CX

loop:
	VMOVUPD   (SI), Y0      // [ar0 ai0 ar1 ai1]
	VMOVUPD   32(SI), Y1    // [ar2 ai2 ar3 ai3]
	VMOVUPD   (DX), Y2      // [br0 bi0 br1 bi1]
	VMOVUPD   32(DX), Y3    // [br2 bi2 br3 bi3]
	VUNPCKLPD Y1, Y0, Y4    // ar, order [0 2 1 3]
	VUNPCKHPD Y1, Y0, Y5    // ai
	VUNPCKLPD Y3, Y2, Y6    // br
	VUNPCKHPD Y3, Y2, Y7    // bi
	VMULPD    Y6, Y4, Y8    // ar·br
	VMULPD    Y7, Y5, Y9    // ai·bi
	VSUBPD    Y9, Y8, Y8    // re = ar·br − ai·bi
	VMULPD    Y7, Y4, Y9    // ar·bi
	VMULPD    Y6, Y5, Y10   // ai·br
	VADDPD    Y10, Y9, Y9   // im = ar·bi + ai·br
	VPERMPD   $0xd8, Y8, Y8 // restore [0 1 2 3]
	VPERMPD   $0xd8, Y9, Y9
	VMOVUPD   Y8, (DI)
	VMOVUPD   Y9, (R8)
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $32, DI
	ADDQ      $32, R8
	DECQ      CX
	JNZ       loop

	VZEROUPPER
	RET
