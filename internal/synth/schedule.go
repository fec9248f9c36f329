package synth

import (
	"fmt"

	"netscatter/internal/dsp"
)

// Frame schedules and the fused accumulate. A placed frame adds, symbol
// by symbol, one of its two mixed templates times a constant rotation
// (or nothing, for a silent symbol). FrameSchedule records that plan
// once per frame and round — the template choice and symRot's sincos —
// so the per-(AP, tile) accumulate only reads it. AccumulateFrames then
// adds several scheduled frames in one pass over the receive span:
// where the frames all sit in fixed symbols, dsp.AxpyMultiInto keeps
// the accumulator in registers across up to four frames instead of
// loading and storing it once per frame.

// Symbol kinds of a FrameSchedule.
const (
	symSilent uint8 = iota
	symUp
	symDown
)

// FuseRun is the most frames one fused pass walks together: the
// channel accumulates runs of up to FuseRun consecutive scheduled
// transmissions per call. On BenchmarkAccumulateTile (2-vCPU Xeon)
// eight measured about 7% faster than sixteen and within noise of
// four, 2.5% ahead in the median of twelve alternating pairs.
const FuseRun = 8

// rangeChunk is how many symbols FrameMixedAccumulateRange plans at a
// time into stack storage: a 4096-sample tile at N ≥ 256 in one chunk.
const rangeChunk = 16

// FrameSchedule is one placed frame's accumulate plan: the receive
// sample where its symbol 0 starts and, per symbol, the template it
// adds (up, down or none) and the constant rotation it adds it with —
// exactly the choices FrameMixedAccumulateRange makes per symbol, at 17
// bytes per symbol. An all-silent frame has an empty schedule. The zero
// value is ready to fill, and a refill reuses the storage.
type FrameSchedule struct {
	base int
	kind []uint8
	rot  []complex128
}

// FrameMixedSchedule fills sc with the plan of the frame
// FrameMixedAccumulateRange adds at offset at for the same arguments:
// its symbol-0 sample, and per symbol the template slot and the
// rotation symRot(omega, Δ) relative to that template's symbol. Storage
// is reused when its capacity suffices.
func (s *Synthesizer) FrameMixedSchedule(sc *FrameSchedule, at, upPreamble, downPreamble int, bits []byte, frac, omega float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("synth: fractional delay %v outside [0, 1)", frac))
	}
	kUp, kDown, off, _ := frameTemplateSlots(upPreamble, downPreamble, bits, frac)
	sc.base = at + off
	if kUp < 0 && kDown < 0 {
		sc.kind, sc.rot = sc.kind[:0], sc.rot[:0]
		return
	}
	total := upPreamble + downPreamble + len(bits)
	if cap(sc.kind) < total {
		sc.kind = make([]uint8, total)
	}
	sc.kind = sc.kind[:total]
	sc.rot = growComplex(sc.rot[:0], total)
	s.fillSymbols(sc.kind, sc.rot, 0, upPreamble, downPreamble, bits, kUp, kDown, omega)
}

// fillSymbols plans symbols k0, k0+1, … (len(kind) of them) of a frame
// whose template slots are kUp and kDown: a template symbol adds its
// template with rotation exactly 1, every other non-silent symbol adds
// it rotated by the inter-symbol mix phase. Silent symbols leave rot
// untouched; nothing reads it.
func (s *Synthesizer) fillSymbols(kind []uint8, rot []complex128, k0, upPreamble, downPreamble int, bits []byte, kUp, kDown int, omega float64) {
	n := s.n
	for i := range kind {
		k := k0 + i
		switch {
		case k == kUp:
			kind[i], rot[i] = symUp, 1
		case k == kDown:
			kind[i], rot[i] = symDown, 1
		case k < upPreamble:
			kind[i], rot[i] = symUp, symRot(omega, (k-kUp)*n)
		case k < upPreamble+downPreamble:
			kind[i], rot[i] = symDown, symRot(omega, (k-kDown)*n)
		case bits[k-upPreamble-downPreamble] != 0:
			kind[i], rot[i] = symUp, symRot(omega, (k-kUp)*n)
		default:
			kind[i] = symSilent
		}
	}
}

// FusedFrame is one frame of a fused accumulate: its schedule and the
// template set it reads (FrameMixedTemplates's layout, up at [:N] and
// down at [N:2N]; any gain is already in the templates).
type FusedFrame struct {
	Sched *FrameSchedule
	Tmpl  []complex128
}

// AccumulateFrames adds the [lo, hi) clip of every frame into out:
// bit-identical to one FrameMixedAccumulateRange call per frame, in
// order, provided out was accumulated from (+0.0)-zeroed storage.
//
// Frames are taken in groups of up to FuseRun consecutive frames whose
// symbol-0 samples lie within N/2 of each other, and each group is
// added in one pass over the span, symbol period by symbol period.
// Within a period every frame of the group sits in the same symbol
// except between the frames' symbol edges: the period's core goes to
// dsp.AxpyMultiInto with the frames as terms in order, and the few
// boundary samples, where earlier frames have already crossed into the
// next symbol, run dsp.AxpyElem sample by sample in frame order. Either
// way every sample receives the frames' products in frame order, the
// order the per-frame calls add them, and consecutive groups follow
// one another, so any delay spread is exact; a group only fuses less
// when delays scatter by half a symbol or more.
//
// Two facts make the products match too. A template symbol's rotation
// is exactly 1; a per-frame call adds the template with AddInto, while
// a fused pass may add template·1 through the fused product, which
// equals the template except possibly in the sign of a zero. And a sum
// seeded with +0.0 never becomes −0.0, so adding +0.0 or −0.0 to it
// gives the same bits.
func (s *Synthesizer) AccumulateFrames(out []complex128, lo, hi int, frames []FusedFrame) {
	if lo < 0 || hi > len(out) || lo > hi {
		panic(fmt.Sprintf("synth: accumulate range [%d, %d) outside buffer of %d", lo, hi, len(out)))
	}
	for len(frames) > 0 {
		minB, maxB := frames[0].Sched.base, frames[0].Sched.base
		m := 1
		for ; m < len(frames) && m < FuseRun; m++ {
			b := frames[m].Sched.base
			if max(maxB, b)-min(minB, b) >= s.n/2 {
				break
			}
			minB, maxB = min(minB, b), max(maxB, b)
		}
		s.accumulateGroup(out, lo, hi, frames[:m], minB, maxB)
		frames = frames[m:]
	}
}

// symbolOf returns what frame f adds in its symbol k: the template
// symbol and its rotation, or ok false when the symbol is silent or
// outside the frame.
func (s *Synthesizer) symbolOf(f *FusedFrame, k int) (src []complex128, c complex128, ok bool) {
	n := s.n
	sc := f.Sched
	if k < 0 || k >= len(sc.kind) || sc.kind[k] == symSilent {
		return nil, 0, false
	}
	off := int(sc.kind[k]-symUp) * n // up at [0, N), down at [N, 2N)
	return f.Tmpl[off : off+n : off+n], sc.rot[k], true
}

// accumulateGroup adds the [lo, hi) clip of up to FuseRun frames whose
// symbol-0 samples lie in [minB, maxB], maxB − minB < N/2. Period k is
// [minB + kN, minB + (k+1)N): frame r is in symbol k − 1 before its
// edge base_r + kN and in symbol k after it, so the period's boundary
// [minB + kN, maxB + kN) mixes the two and its core [maxB + kN,
// minB + (k+1)N) is all symbol k.
func (s *Synthesizer) accumulateGroup(out []complex128, lo, hi int, frames []FusedFrame, minB, maxB int) {
	n := s.n
	var terms [FuseRun]dsp.AxpyTerm
	kLo, kHi := floorDiv(lo-minB, n), floorDiv(hi-1-minB, n)
	for k := kLo; k <= kHi; k++ {
		for j, jEnd := max(lo, minB+k*n), min(hi, maxB+k*n); j < jEnd; j++ {
			acc := out[j]
			for r := range frames {
				kk := k
				if j < frames[r].Sched.base+k*n {
					kk--
				}
				if src, c, ok := s.symbolOf(&frames[r], kk); ok {
					acc = dsp.AxpyElem(acc, src[j-frames[r].Sched.base-kk*n], c)
				}
			}
			out[j] = acc
		}
		cLo, cHi := max(lo, maxB+k*n), min(hi, minB+(k+1)*n)
		if cLo >= cHi {
			continue
		}
		m := 0
		for r := range frames {
			if src, c, ok := s.symbolOf(&frames[r], k); ok {
				start := frames[r].Sched.base + k*n
				terms[m] = dsp.AxpyTerm{Src: src[cLo-start : cHi-start], C: c}
				m++
			}
		}
		switch d := out[cLo:cHi]; {
		case m == 1:
			addTerm(d, terms[0].Src, terms[0].C)
		case m > 1:
			dsp.AxpyMultiInto(d, terms[:m])
		}
	}
}

// addTerm adds src·c into d. A template symbol (rotation exactly 1)
// goes through AddInto and any other through AxpyInto, as the
// per-frame accumulate has always added them; a fused pass adds
// template·1 as a product instead (see AccumulateFrames).
func addTerm(d, src []complex128, c complex128) {
	if c == 1 {
		dsp.AddInto(d, src)
		return
	}
	dsp.AxpyInto(d, src, c)
}
