package dsp

import "math"

// SIMD dispatch for the repository's two hottest inner loops: the
// complex accumulate kernels (the fused transmit path adds hundreds of
// template-symbol segments into the receive buffer per round) and the
// planar FFT butterfly stages (the receive cascade). Each kernel has a
// pure-Go scalar body — the reference — and an AVX2 body selected at
// init on amd64 when the CPU and OS support it.
//
// Bit-exactness contract: every vector lane performs exactly the
// scalar body's operation sequence on its element — same expression
// order, and wherever a kernel fuses a multiply-add into one rounding
// (VFMADD/VFMSUB families) the scalar body computes the identical
// fusion with math.FMA, which Go software-fuses when hardware FMA is
// absent. Lanes are independent, so vector and scalar paths produce
// bit-identical results on every platform. Tests enforce this by
// running both paths on random inputs and comparing exactly; the
// decode-side oracle suites (BatchPlan vs ForwardPruned, accumulate vs
// materialize+superpose) then pin it end to end.

// simdAVX2 reports whether the AVX2 kernel bodies are in use. It is a
// variable, not a constant, so tests can force the scalar path and
// compare the two bitwise.
var simdAVX2 = false

// simdFMA reports whether the FMA kernel bodies are in use: AVX2 plus
// the FMA3 instruction set. Kernels whose scalar reference uses
// math.FMA (single-rounding multiply-add) dispatch on this flag; the
// scalar bodies stay bit-identical because math.FMA is exactly the
// fused operation VFMADD/VFMSUB perform.
var simdFMA = false

// AddInto adds src into dst element-wise: dst[i] += src[i]. The slices
// must have equal length; mismatches panic identically on the scalar
// and vector paths, so misuse cannot be platform-dependent.
func AddInto(dst, src []complex128) {
	if len(src) != len(dst) {
		panic("dsp: AddInto length mismatch")
	}
	if simdAVX2 && len(dst) >= 2 {
		addIntoAVX2(dst, src)
		return
	}
	addIntoScalar(dst, src)
}

func addIntoScalar(dst, src []complex128) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// AddFloat64 adds src into dst element-wise: dst[i] += src[i]. This is
// the power-spectrum sum of the soft cross-AP combining path: per-AP
// planar power spectra are accumulated bin by bin before a single
// combined peak scan. The slices must have equal length; mismatches
// panic identically on the scalar and vector paths.
func AddFloat64(dst, src []float64) {
	if len(src) != len(dst) {
		panic("dsp: AddFloat64 length mismatch")
	}
	if simdAVX2 && len(dst) >= 4 {
		addF64AVX2(dst, src)
		return
	}
	addF64Scalar(dst, src)
}

func addF64Scalar(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// AxpyInto accumulates a constant complex multiple of src into dst:
// dst[i] += src[i]·c, with the product fused to one rounding per
// component and the accumulate kept as a separate add:
//
//	tr = FMA(sr, cr, −(si·ci))    (VFMADDSUB231PD even lanes)
//	ti = FMA(si, cr, sr·ci)       (VFMADDSUB231PD odd lanes)
//	dst[i] += complex(tr, ti)
//
// math.FMA is exactly the fused operation the vector body performs, so
// scalar and vector paths are bit-identical on every platform
// (software-fused where hardware FMA is absent). Keeping the
// accumulate unfused is what preserves the accumulate ≡
// materialize+superpose contract: ScaleInto computes the identical
// (tr, ti) and AddInto performs the identical lane-wise add, so
// accumulating directly or materializing first gives the same bits.
// The slices must have equal length; mismatches panic on both paths.
func AxpyInto(dst, src []complex128, c complex128) {
	if len(src) != len(dst) {
		panic("dsp: AxpyInto length mismatch")
	}
	if simdFMA && len(dst) >= 2 {
		axpyIntoAVX2(dst, src, c)
		return
	}
	axpyIntoScalar(dst, src, c)
}

func axpyIntoScalar(dst, src []complex128, c complex128) {
	for i := range dst {
		dst[i] = AxpyElem(dst[i], src[i], c)
	}
}

// AxpyElem returns acc + s·c for one element, with exactly AxpyInto's
// per-element expansion (fused product, separate add) — the scalar
// body of AxpyInto and AxpyMultiInto, for callers that accumulate
// element by element.
func AxpyElem(acc, s, c complex128) complex128 {
	sr, si := real(s), imag(s)
	cr, ci := real(c), imag(c)
	return acc + complex(math.FMA(sr, cr, -(si*ci)), math.FMA(si, cr, sr*ci))
}

// AxpyTerm is one source of AxpyMultiInto: Src scaled by C.
type AxpyTerm struct {
	Src []complex128
	C   complex128
}

// axpyPassTerms is the most terms the vector body folds into one load
// and store of the accumulator: four (cr, ci) broadcast pairs fill
// eight of the sixteen ymm registers, leaving the other eight for four
// accumulators and the product temporaries.
const axpyPassTerms = 4

// AxpyMultiInto accumulates several constant multiples into dst in
// term order:
//
//	for each i, for each term t in order: dst[i] += t.Src[i]·t.C
//
// with every product AxpyInto's fused expansion and every add a
// separate rounding. Per element the adds run in term order, so the
// result is bit-identical to calling AxpyInto once per term, in order.
// The vector body loads and stores each dst element once per pass of
// up to four terms, keeping the running sum in registers — the saving
// over one AxpyInto pass per term, which is bound by the accumulator's
// loads and stores. Longer term lists run in passes of four, three and
// two (five terms as 3+2, never leaving a single-term pass behind a
// multi-term one). Every Src must have len(dst) elements; a mismatch
// panics on both paths.
func AxpyMultiInto(dst []complex128, terms []AxpyTerm) {
	for i := range terms {
		if len(terms[i].Src) != len(dst) {
			panic("dsp: AxpyMultiInto length mismatch")
		}
	}
	if !simdFMA || len(dst) < 2 {
		axpyMultiScalar(dst, terms)
		return
	}
	for len(terms) > 0 {
		m := len(terms)
		switch {
		case m == axpyPassTerms+1:
			m = 3
		case m > axpyPassTerms:
			m = axpyPassTerms
		}
		if m == 1 {
			axpyIntoAVX2(dst, terms[0].Src, terms[0].C)
		} else {
			axpyMultiAVX2(dst, &terms[0], m)
		}
		terms = terms[m:]
	}
}

func axpyMultiScalar(dst []complex128, terms []AxpyTerm) {
	for i := range dst {
		acc := dst[i]
		for t := range terms {
			acc = AxpyElem(acc, terms[t].Src[i], terms[t].C)
		}
		dst[i] = acc
	}
}

// ScaleInto writes dst[i] = src[i]·c with exactly AxpyInto's fused
// product expansion, so materializing a scaled template and
// accumulating it with AddInto is bit-identical to accumulating with
// AxpyInto directly (the superposition oracles rely on this). The
// slices must have equal length; mismatches panic on both paths. dst
// may be src: both bodies read each element before writing it.
func ScaleInto(dst, src []complex128, c complex128) {
	if len(src) != len(dst) {
		panic("dsp: ScaleInto length mismatch")
	}
	if simdFMA && len(dst) >= 2 {
		scaleIntoAVX2(dst, src, c)
		return
	}
	scaleIntoScalar(dst, src, c)
}

func scaleIntoScalar(dst, src []complex128, c complex128) {
	cr, ci := real(c), imag(c)
	for i := range dst {
		sr, si := real(src[i]), imag(src[i])
		dst[i] = complex(math.FMA(sr, cr, -(si*ci)), math.FMA(si, cr, sr*ci))
	}
}

// AddScaledFloats accumulates s·src into dst viewed as interleaved
// float64 pairs: dst[i] += complex(s·src[2i], s·src[2i+1]). This is
// the noise-injection primitive — NormBatch fills src with unit
// normals and one fused pass scales and adds them onto the signal.
// Complex addition is component-wise, so the whole operation is a
// scaled float64 add over 2·len(dst) doubles; the vector body performs
// the identical multiply-then-add per element (both unfused, matching
// the scalar body). len(src) must be exactly 2·len(dst); mismatches
// panic on both paths.
func AddScaledFloats(dst []complex128, src []float64, s float64) {
	if len(src) != 2*len(dst) {
		panic("dsp: AddScaledFloats length mismatch")
	}
	if simdAVX2 && len(dst) >= 2 {
		addScaledFloatsAVX2(dst, src, s)
		return
	}
	addScaledFloatsScalar(dst, src, s)
}

func addScaledFloatsScalar(dst []complex128, src []float64, s float64) {
	for i := range dst {
		dst[i] += complex(s*src[2*i], s*src[2*i+1])
	}
}

// Dechirp writes the planar product sym[i]·down[i] into (re, im):
//
//	re[i] = ar·br − ai·bi
//	im[i] = ar·bi + ai·br
//
// — the dechirp multiply of the batched receiver, deinterleaving the
// complex product into the planar FFT layout in the same pass. All
// slices must have length len(sym). Products and the final add/sub
// are unfused on both paths (plain VMULPD/VSUBPD/VADDPD against the
// scalar expressions in the same order), so results are bit-identical.
func Dechirp(re, im []float64, sym, down []complex128) {
	n := len(sym)
	if len(down) != n || len(re) != n || len(im) != n {
		panic("dsp: Dechirp length mismatch")
	}
	if simdAVX2 && n >= 4 {
		q := n &^ 3
		dechirpAVX2(re[:q], im[:q], sym[:q], down[:q])
		if q == n {
			return
		}
		re, im, sym, down = re[q:], im[q:], sym[q:], down[q:]
	}
	dechirpScalar(re, im, sym, down)
}

func dechirpScalar(re, im []float64, sym, down []complex128) {
	for i := range sym {
		ar, ai := real(sym[i]), imag(sym[i])
		br, bi := real(down[i]), imag(down[i])
		re[i] = ar*br - ai*bi
		im[i] = ar*bi + ai*br
	}
}

// SynthChainState is the planar state of synthChainCount interleaved
// phase-recurrence chains: zr, zi, dr, di blocks of synthChainCount
// float64 each. Chain c's oscillator is (zr[c], zi[c]) and its
// per-chain step factor is (dr[c], di[c]).
type SynthChainState [4 * SynthChainCount]float64

// SynthChainCount is the number of interleaved recurrence chains the
// synthesis kernel advances per step — one output sample per chain per
// step, so a step emits SynthChainCount consecutive samples.
const SynthChainCount = 8

// SynthChains8 advances 8 interleaved second-order phase-recurrence
// chains `steps` times, emitting the 8 chain samples of each step as
// consecutive complex values: for step k and chain c,
//
//	dst[8k+c] = complex(zr[c]·mag, zi[c]·mag)
//	z[c]      = z[c]·d[c]     (complex, fused: re = FMA(zr, dr, −zi·di),
//	                                           im = FMA(zr, di, zi·dr))
//	d[c]      = d[c]·dL       (same fused expansion)
//
// dL is the shared second difference (e^{j·2a·L²} for stride L = 8).
// len(dst) must be at least 8·steps. The caller owns renormalization:
// the kernel never renormalizes, so drivers renormalize st between
// bounded-step calls. The scalar body uses math.FMA in exactly the
// pattern the AVX2 body's VFMSUB231PD/VFMADD231PD instructions
// compute, so both paths are bit-identical.
func SynthChains8(dst []complex128, st *SynthChainState, dL complex128, mag float64, steps int) {
	if steps <= 0 {
		return
	}
	if len(dst) < SynthChainCount*steps {
		panic("dsp: SynthChains8 dst too short")
	}
	if simdFMA {
		synthChains8AVX2(dst, (*[32]float64)(st), real(dL), imag(dL), mag, steps)
		return
	}
	synthChains8Scalar(dst, st, real(dL), imag(dL), mag, steps)
}

func synthChains8Scalar(dst []complex128, st *SynthChainState, dLr, dLi, mag float64, steps int) {
	for k := 0; k < steps; k++ {
		row := dst[k*8 : k*8+8 : k*8+8]
		for c := 0; c < 8; c++ {
			zr, zi := st[c], st[8+c]
			row[c] = complex(zr*mag, zi*mag)
			dr, di := st[16+c], st[24+c]
			st[c] = math.FMA(zr, dr, -(zi * di))
			st[8+c] = math.FMA(zr, di, zi*dr)
			st[16+c] = math.FMA(dr, dLr, -(di * dLi))
			st[24+c] = math.FMA(dr, dLi, di*dLr)
		}
	}
}

// MaxPower returns the maximum re[i]²+im[i]² over the planar slices —
// the window-power scan primitive of the batched receiver. The per-
// element power uses the exact PowerSpectrumPlanar expression; the
// running maximum of non-negative values is order-insensitive, so the
// scalar and AVX2 bodies are bit-identical. len(im) must be at least
// len(re); len(re) must be > 0.
func MaxPower(re, im []float64) float64 {
	if len(re) == 0 {
		panic("dsp: MaxPower of empty window")
	}
	if simdAVX2 && len(re) >= 4 {
		return maxPowerAVX2(re, im[:len(re)])
	}
	return maxPowerScalar(re, im)
}

func maxPowerScalar(re, im []float64) float64 {
	r, m := re[0], im[0]
	val := r*r + m*m
	for i := 1; i < len(re); i++ {
		r, m = re[i], im[i]
		if p := r*r + m*m; p > val {
			val = p
		}
	}
	return val
}
