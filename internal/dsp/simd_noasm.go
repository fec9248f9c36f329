//go:build !amd64

package dsp

// Non-amd64 builds never flip simdAVX2, so these bodies are
// unreachable; they exist to satisfy the dispatch call sites.

func addIntoAVX2(dst, src []complex128) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func addF64AVX2(dst, src []float64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func axpyIntoAVX2(dst, src []complex128, c complex128) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func axpyMultiAVX2(dst []complex128, terms *AxpyTerm, m int) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func scaleIntoAVX2(dst, src []complex128, c complex128) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func stageAVX2(re, im []float64, start, h, count, blocks int, twr, twi []float64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func stagePairAVX2(re, im []float64, start, h, count, blocks int, w1r, w1i, w2r, w2i []float64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func frontAVX2(re, im []float64, base, span, z int, vr, vi []float64, rev []int32, tw []float64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func addScaledFloatsAVX2(dst []complex128, src []float64, s float64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func dechirpAVX2(re, im []float64, sym, down []complex128) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func synthChains8AVX2(dst []complex128, st *[32]float64, dLr, dLi, mag float64, steps int) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func maxPowerAVX2(re, im []float64) float64 {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func zigFillAVX2(dst, words []float64, bits []uint64, st *Stream, kw *[2 * zigLayers]uint64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func zigLanesAVX2(lanes *[16]uint64, words, vals []float64, bits []uint64, stride, n int, kw *[2 * zigLayers]uint64) {
	panic("dsp: AVX2 kernel called without AVX2 support")
}

func zigCompactAVX2(out, vals []float64, keep []uint64, perm *[16][8]uint32) int {
	panic("dsp: AVX2 kernel called without AVX2 support")
}
