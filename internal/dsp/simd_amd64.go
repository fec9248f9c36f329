//go:build amd64

package dsp

// CPUID-based feature detection. The vector bodies need AVX2 plus OS
// support for saving ymm state (OSXSAVE + XCR0 bits 1 and 2). There is
// no build-time assumption: on CPUs or kernels without support every
// dispatch stays on the scalar bodies.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XMM and YMM state enabled by the OS
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	simdAVX2 = b7&avx2 != 0
	const fma3 = 1 << 12
	simdFMA = simdAVX2 && c1&fma3 != 0
}

//go:noescape
func addIntoAVX2(dst, src []complex128)

//go:noescape
func addF64AVX2(dst, src []float64)

//go:noescape
func axpyIntoAVX2(dst, src []complex128, c complex128)

//go:noescape
func axpyMultiAVX2(dst []complex128, terms *AxpyTerm, m int)

//go:noescape
func scaleIntoAVX2(dst, src []complex128, c complex128)

//go:noescape
func stageAVX2(re, im []float64, start, h, count, blocks int, twr, twi []float64)

//go:noescape
func stagePairAVX2(re, im []float64, start, h, count, blocks int, w1r, w1i, w2r, w2i []float64)

//go:noescape
func frontAVX2(re, im []float64, base, span, z int, vr, vi []float64, rev []int32, tw []float64)

//go:noescape
func addScaledFloatsAVX2(dst []complex128, src []float64, s float64)

//go:noescape
func dechirpAVX2(re, im []float64, sym, down []complex128)

//go:noescape
func synthChains8AVX2(dst []complex128, st *[32]float64, dLr, dLi, mag float64, steps int)

//go:noescape
func maxPowerAVX2(re, im []float64) float64

//go:noescape
func zigFillAVX2(dst, words []float64, bits []uint64, st *Stream, kw *[2 * zigLayers]uint64)

//go:noescape
func zigLanesAVX2(lanes *[16]uint64, words, vals []float64, bits []uint64, stride, n int, kw *[2 * zigLayers]uint64)

//go:noescape
func zigCompactAVX2(out, vals []float64, keep []uint64, perm *[16][8]uint32) int
