package radio

import (
	"math"

	"netscatter/internal/dsp"
)

// noiseBlock is the number of complex samples filled per batch draw in
// the fused AWGN pass: 2·noiseBlock float64s (4 KiB) of stack scratch,
// small enough to stay cache- and stack-resident, large enough to
// amortize the batch call.
const noiseBlock = 256

// AddAWGN adds circularly symmetric complex Gaussian noise with total
// power noisePower to sig in place, drawing from a dsp.Stream — the
// fused "fill + add" pass of the vectorized noise engine: the ziggurat
// sampler fills a small planar block, which is scaled and accumulated
// while still hot, so the per-sample cost is one batch table lookup and
// one multiply-add instead of a scaled per-sample generator call. Each
// complex sample consumes two normals, real part first, matching the
// draw order of the per-sample oracle path.
func AddAWGN(st *dsp.Stream, sig []complex128, noisePower float64) {
	s := math.Sqrt(noisePower / 2)
	var buf [2 * noiseBlock]float64
	for base := 0; base < len(sig); base += noiseBlock {
		blk := sig[base:min(base+noiseBlock, len(sig))]
		st.NormBatch(buf[: 2*len(blk) : 2*len(blk)])
		dsp.AddScaledFloats(blk, buf[:2*len(blk)], s)
	}
}

// AddAWGNLanes adds noise of power noisePower to up to dsp.ZigLanes
// signals at once, sigs[l] drawing from sts[l]: the multi-stream twin
// of AddAWGN. Every signal receives exactly the noise AddAWGN(sts[l],
// sigs[l], noisePower) would add — the same normals, as
// dsp.NormBatchLanes fills each stream's block in NormBatch's sequence,
// and the same multiply-then-add per element — and every stream ends
// in the same state, so a caller may move between the two freely.
// Three or four signals share the lane fill. One or two take AddAWGN:
// the lane fill would run NormBatch per stream for them anyway, since
// a lane-kernel step costs about what four single-stream words do. The
// lanes' block scratch is borrowed (dsp.BorrowFloat64), not put on the
// stack of the caller, often a short-lived pool helper.
func AddAWGNLanes(sts []*dsp.Stream, sigs [][]complex128, noisePower float64) {
	if len(sts) != len(sigs) || len(sigs) > dsp.ZigLanes {
		panic("radio: AddAWGNLanes needs one stream per signal, at most dsp.ZigLanes")
	}
	if len(sigs) <= 2 {
		for l, sig := range sigs {
			AddAWGN(sts[l], sig, noisePower)
		}
		return
	}
	s := math.Sqrt(noisePower / 2)
	longest := 0
	for _, sig := range sigs {
		longest = max(longest, len(sig))
	}
	// One lane fill over the whole signals: its short last blocks and
	// sequential leftovers come once per call, not once per block.
	stride := 2 * longest
	buf := dsp.BorrowFloat64(dsp.ZigLanes * stride)
	var dsts [dsp.ZigLanes][]float64
	for l, sig := range sigs {
		dsts[l] = buf[l*stride : l*stride+2*len(sig) : l*stride+2*len(sig)]
	}
	dsp.NormBatchLanes(sts, dsts[:len(sigs)])
	for l, sig := range sigs {
		dsp.AddScaledFloats(sig, dsts[l], s)
	}
	dsp.ReturnFloat64(buf)
}

// Superpose adds src (starting at sample offset) into dst, clipping src
// to dst's bounds. It returns the number of samples written. This is how
// concurrent backscatter transmissions combine at the AP antenna.
//
// The overlap is clipped once up front so the accumulation loop carries
// no per-element bounds branch — with hundreds of concurrent frames
// this add is one of the receiver front-end's hottest loops; the add
// itself runs through dsp.AddInto's vector kernel where available
// (bit-identical to the scalar loop by the lane-independence argument
// in dsp/simd.go).
func Superpose(dst, src []complex128, offset int) int {
	lo, hi := clipRange(len(dst), len(src), offset)
	if hi <= lo {
		return 0
	}
	dsp.AddInto(dst[offset+lo:offset+hi], src[lo:hi:hi])
	return hi - lo
}

// SuperposeBatch accumulates every source into dst in one pass:
// srcs[k] is added starting at sample offsets[k], clipped to dst's
// bounds, in slice order — element for element the same additions in
// the same order as calling Superpose once per source, so the composite
// signal is bit-identical to the serial loop it replaces. Empty or
// fully clipped sources are skipped. It returns the total number of
// samples written.
func SuperposeBatch(dst []complex128, srcs [][]complex128, offsets []int) int {
	if len(srcs) != len(offsets) {
		panic("radio: SuperposeBatch sources and offsets differ in length")
	}
	total := 0
	for k, src := range srcs {
		total += Superpose(dst, src, offsets[k])
	}
	return total
}

// clipRange returns the half-open range [lo, hi) of src indices that
// land inside a dst of length dstLen when src is placed at offset.
func clipRange(dstLen, srcLen, offset int) (lo, hi int) {
	lo = 0
	if offset < 0 {
		lo = -offset
	}
	hi = srcLen
	if offset+hi > dstLen {
		hi = dstLen - offset
	}
	return lo, hi
}
