package synth

import (
	"fmt"

	"netscatter/internal/dsp"
)

// Frame synthesis. A NetScatter frame is upPreamble shifted upchirps,
// downPreamble shifted downchirps, then one ON-OFF keyed symbol per
// payload bit — every non-silent symbol is the *same* shifted chirp (or
// its conjugate). A fractional delay shifts every symbol by the same
// sub-sample offset, so the whole frame reduces to one recurrence-
// synthesized template symbol plus copies: O(N) arithmetic for a frame
// of dozens of symbols, where the analytic path paid a sin/cos for
// every sample of every symbol.

// FrameSamples returns the length of the waveform Frame-family calls
// produce for the given symbol count: totalSyms·N undelayed, plus one
// sample of tail when a fractional delay pushes the last symbol past
// the nominal grid.
func (s *Synthesizer) FrameSamples(totalSyms int, frac float64) int {
	if frac == 0 {
		return totalSyms * s.n
	}
	return totalSyms*s.n + 1
}

// AppendFrame appends the undelayed frame waveform for bits to dst and
// returns the extended slice: upPreamble shifted upchirps, downPreamble
// shifted downchirps, one shifted upchirp per '1' bit and one symbol of
// silence per '0' bit. Symbols are written in place from the symbol
// bank — no per-symbol scratch slices.
func (s *Synthesizer) AppendFrame(dst []complex128, shift int, upPreamble, downPreamble int, bits []byte) []complex128 {
	n := s.n
	totalSyms := upPreamble + downPreamble + len(bits)
	base := len(dst)
	dst = growComplex(dst, base+totalSyms*n)
	body := dst[base:]

	k0 := firstOnSymbol(upPreamble, downPreamble, bits)
	if k0 < 0 {
		zeroComplex(body)
		return dst
	}
	tmpl := body[k0*n : (k0+1)*n]
	s.SymbolInto(tmpl, shift)
	s.fillFromTemplate(body, tmpl, k0, upPreamble, downPreamble, bits)
	return dst
}

// FrameDelayedInto writes the frame waveform delayed by frac samples
// (0 <= frac < 1) into dst, reusing its storage when the capacity
// suffices, and returns the result. This is the exact waveform a tag
// starting frac samples late contributes to the AP's sample grid:
// sample j holds frame(j - frac), evaluated through the analytic phase
// recurrence, with samples near symbol boundaries correctly falling
// into the previous symbol's tail. Integer delays are applied by
// placement (air.Channel); together they realize arbitrary real-valued
// hardware delays with exact chirp physics.
func (s *Synthesizer) FrameDelayedInto(dst []complex128, shift int, upPreamble, downPreamble int, bits []byte, frac float64) []complex128 {
	if frac == 0 {
		return s.AppendFrame(dst[:0], shift, upPreamble, downPreamble, bits)
	}
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("synth: fractional delay %v outside [0, 1)", frac))
	}
	n := s.n
	totalSyms := upPreamble + downPreamble + len(bits)
	dst = growComplex(dst[:0], s.FrameSamples(totalSyms, frac))
	// Sample 0 precedes the delayed frame start (u = -frac < 0); symbol
	// k then occupies samples [k·n+1, (k+1)·n], each evaluating the
	// shifted chirp at the same sub-sample grid x ∈ {1-frac, …, n-frac}.
	dst[0] = 0
	body := dst[1:]

	k0 := firstOnSymbol(upPreamble, downPreamble, bits)
	if k0 < 0 {
		zeroComplex(body)
		return dst
	}
	tmpl := body[k0*n : (k0+1)*n]
	s.ShiftedInto(tmpl, shift, 1-frac)
	s.fillFromTemplate(body, tmpl, k0, upPreamble, downPreamble, bits)
	return dst
}

// FrameMixedInto is FrameDelayedInto with the channel mix folded into
// synthesis: the returned waveform w satisfies
//
//	w[j] = frameDelayed[j] · e^{jω·j} · gain,   ω = omega rad/sample,
//
// i.e. exactly what applying a frequency offset of ω and a complex
// carrier gain to the delayed frame would produce — in a single pass.
// The frequency mix breaks exact symbol repetition (each symbol picks
// up a constant phase e^{jω·k·N}), so the frame becomes two mixed
// templates (upchirp and downchirp) plus one constant complex multiply
// per sample — still O(N) recurrence arithmetic per frame.
func (s *Synthesizer) FrameMixedInto(dst []complex128, shift int, upPreamble, downPreamble int, bits []byte, frac, omega float64, gain complex128) []complex128 {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("synth: fractional delay %v outside [0, 1)", frac))
	}
	n := s.n
	totalSyms := upPreamble + downPreamble + len(bits)
	off := 0 // leading samples before the first symbol
	x0 := 0.0
	if frac != 0 {
		off = 1
		x0 = 1 - frac
	}
	dst = growComplex(dst[:0], s.FrameSamples(totalSyms, frac))
	if off == 1 {
		dst[0] = 0 // precedes the delayed frame start (u = -frac < 0)
	}
	body := dst[off:]

	// Template slots: the first upchirp-valued symbol and the first
	// downchirp symbol are synthesized in place with their own mix
	// phase baked in; every other symbol is a constant-scaled copy.
	kUp := -1
	if upPreamble > 0 {
		kUp = 0
	} else {
		for i, b := range bits {
			if b != 0 {
				kUp = upPreamble + downPreamble + i
				break
			}
		}
	}
	kDown := -1
	if downPreamble > 0 {
		kDown = upPreamble
	}
	if kUp < 0 && kDown < 0 {
		zeroComplex(body)
		return dst
	}

	symPhase := func(k int) complex128 {
		if omega == 0 {
			return gain
		}
		return gain * cis(omega*float64(off+k*n))
	}
	var tmplUp, tmplDown []complex128
	if kUp >= 0 {
		tmplUp = body[kUp*n : (kUp+1)*n]
		s.MixedInto(tmplUp, shift, x0, false, omega, symPhase(kUp))
	}
	if kDown >= 0 {
		tmplDown = body[kDown*n : (kDown+1)*n]
		s.MixedInto(tmplDown, shift, x0, true, omega, symPhase(kDown))
	}
	for k := 0; k < totalSyms; k++ {
		if k == kUp || k == kDown {
			continue
		}
		seg := body[k*n : (k+1)*n]
		switch {
		case k < upPreamble:
			scaledCopy(seg, tmplUp, symRot(omega, (k-kUp)*n))
		case k < upPreamble+downPreamble:
			scaledCopy(seg, tmplDown, symRot(omega, (k-kDown)*n))
		case bits[k-upPreamble-downPreamble] != 0:
			scaledCopy(seg, tmplUp, symRot(omega, (k-kUp)*n))
		default:
			zeroComplex(seg)
		}
	}
	return dst
}

// frameTemplateSlots mirrors FrameMixedInto's template selection: the
// index of the first upchirp-valued symbol (kUp, -1 when the frame has
// no preamble and all-zero bits) and the first downchirp symbol (kDown,
// -1 without a down preamble), plus the leading-silence offset and
// synthesis start coordinate implied by frac.
func frameTemplateSlots(upPreamble, downPreamble int, bits []byte, frac float64) (kUp, kDown, off int, x0 float64) {
	if frac != 0 {
		off = 1
		x0 = 1 - frac
	}
	kUp = -1
	if upPreamble > 0 {
		kUp = 0
	} else {
		for i, b := range bits {
			if b != 0 {
				kUp = upPreamble + downPreamble + i
				break
			}
		}
	}
	kDown = -1
	if downPreamble > 0 {
		kDown = upPreamble
	}
	return
}

// FrameMixedTemplates synthesizes the frame's mixed template symbols —
// everything FrameMixedAccumulate needs besides plain scaled adds —
// into tmpl, grown to 2N and returned for reuse: the upchirp template
// (with kUp's mix phase and the carrier gain baked in) at tmpl[:N] and
// the downchirp template at tmpl[N:2N]. A frame that is all silence
// returns tmpl untouched. Splitting template synthesis from
// accumulation lets the channel build every device's templates once
// (in parallel) and then accumulate arbitrary sub-ranges of the
// receive buffer from them — the tiled transmit path.
func (s *Synthesizer) FrameMixedTemplates(tmpl []complex128, shift, upPreamble, downPreamble int, bits []byte, frac, omega float64, gain complex128) []complex128 {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("synth: fractional delay %v outside [0, 1)", frac))
	}
	n := s.n
	kUp, kDown, off, x0 := frameTemplateSlots(upPreamble, downPreamble, bits, frac)
	if kUp < 0 && kDown < 0 {
		return tmpl // all silence: nothing to synthesize
	}
	tmpl = growComplex(tmpl[:0], 2*n)
	symPhase := func(k int) complex128 {
		if omega == 0 {
			return gain
		}
		return gain * cis(omega*float64(off+k*n))
	}
	if kUp >= 0 {
		s.MixedInto(tmpl[:n], shift, x0, false, omega, symPhase(kUp))
	}
	if kDown >= 0 {
		s.MixedInto(tmpl[n:2*n], shift, x0, true, omega, symPhase(kDown))
	}
	return tmpl
}

// FrameMixedAccumulateRange adds the [lo, hi) clip of the placed frame
// into out, reading pre-synthesized templates from tmpl (which must
// come from FrameMixedTemplates with identical frame arguments). Only
// symbols overlapping the range are touched, so accumulating a tile
// costs O(overlap), not O(frame) — tiles covering the whole buffer
// reproduce FrameMixedAccumulate's additions exactly: per sample the
// same products in the same order, regardless of how [0, len(out)) is
// partitioned. That per-sample invariance is what makes the tiled
// parallel transmit path bit-identical to the serial pass.
//
// The overlapping symbols are planned a few at a time into stack
// storage by the code that fills a FrameSchedule (fillSymbols), and
// each non-silent symbol is added as AccumulateFrames adds a lone term
// (addTerm): a template symbol with AddInto, any other with AxpyInto.
// One frame walks its symbols directly rather than through the fused
// group walk, whose per-period bookkeeping measured about a fifth
// slower per tile for a single frame.
func (s *Synthesizer) FrameMixedAccumulateRange(out []complex128, lo, hi, at int, tmpl []complex128, upPreamble, downPreamble int, bits []byte, frac, omega float64) {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("synth: fractional delay %v outside [0, 1)", frac))
	}
	if lo < 0 || hi > len(out) || lo > hi {
		panic(fmt.Sprintf("synth: accumulate range [%d, %d) outside buffer of %d", lo, hi, len(out)))
	}
	n := s.n
	totalSyms := upPreamble + downPreamble + len(bits)
	kUp, kDown, off, _ := frameTemplateSlots(upPreamble, downPreamble, bits, frac)
	if kUp < 0 && kDown < 0 {
		return // all silence: nothing to add
	}

	// Restrict the plan to the symbols whose span [base+k·n, base+k·n+n)
	// intersects [lo, hi).
	// Smallest k with base+k·n+n > lo is ⌊(lo−base)/n⌋ exactly.
	base := at + off
	kMin := max(floorDiv(lo-base, n), 0)
	kMax := min(floorDiv(hi-1-base, n), totalSyms-1)
	var kind [rangeChunk]uint8
	var rot [rangeChunk]complex128
	for k0 := kMin; k0 <= kMax; k0 += rangeChunk {
		m := min(rangeChunk, kMax-k0+1)
		s.fillSymbols(kind[:m], rot[:m], k0, upPreamble, downPreamble, bits, kUp, kDown, omega)
		for i, kd := range kind[:m] {
			if kd == symSilent {
				continue
			}
			start := base + (k0+i)*n
			cLo, cHi := max(lo, start), min(hi, start+n)
			src := tmpl[int(kd-symUp)*n+cLo-start:]
			addTerm(out[cLo:cHi], src[:cHi-cLo], rot[i])
		}
	}
}

// FrameMixedAccumulate adds the FrameMixedInto waveform, placed at
// sample offset at, directly into out — without materializing the
// frame. The frame is two recurrence-synthesized template symbols plus
// constant-scaled copies, so accumulation needs only the templates:
// each symbol segment adds tmpl[i]·rot into its clipped slice of out,
// and silent symbols are skipped outright. tmpl is caller-owned
// template scratch (grown to 2N and returned for reuse), which keeps
// the synthesizer shareable across goroutines. It is the composition
// of FrameMixedTemplates and a whole-buffer FrameMixedAccumulateRange.
//
// Bit-exactness contract: for every sample, the value added is the
// exact product scaledCopy would have stored (same expression, same
// order), so out ends bit-identical to FrameMixedInto followed by
// radio.Superpose at offset `at` — provided out was accumulated from
// (+0.0)-zeroed storage. (Skipping a silent symbol differs from adding
// its +0.0 samples only on a -0.0 accumulator element, and a sum seeded
// with +0.0 can never produce -0.0.)
func (s *Synthesizer) FrameMixedAccumulate(out []complex128, at int, tmpl []complex128, shift, upPreamble, downPreamble int, bits []byte, frac, omega float64, gain complex128) []complex128 {
	tmpl = s.FrameMixedTemplates(tmpl, shift, upPreamble, downPreamble, bits, frac, omega, gain)
	s.FrameMixedAccumulateRange(out, 0, len(out), at, tmpl, upPreamble, downPreamble, bits, frac, omega)
	return tmpl
}

// floorDiv returns ⌊a/b⌋ for positive b.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// symRot returns the constant inter-symbol mix rotation e^{jω·Δ}.
func symRot(omega float64, deltaSamples int) complex128 {
	if omega == 0 {
		return 1
	}
	return cis(omega * float64(deltaSamples))
}

// scaledCopy writes dst[i] = src[i]·c through dsp.ScaleInto, whose
// fused expansion is bit-identical to dsp.AxpyInto over a zero
// accumulator — the materialize/accumulate equality the frame-path
// oracles pin.
func scaledCopy(dst, src []complex128, c complex128) {
	if c == 1 {
		copy(dst, src)
		return
	}
	dsp.ScaleInto(dst[:len(src)], src, c)
}

// fillFromTemplate fills every symbol slot of body from the up-chirp
// template living in slot k0: copies for upchirps and '1' bits,
// conjugated copies for downchirps, zeros for '0' bits. The template
// slot itself is conjugated last when it holds a downchirp, so earlier
// copies always read the up version.
func (s *Synthesizer) fillFromTemplate(body, tmpl []complex128, k0, upPreamble, downPreamble int, bits []byte) {
	n := s.n
	totalSyms := upPreamble + downPreamble + len(bits)
	for k := 0; k < totalSyms; k++ {
		if k == k0 {
			continue
		}
		seg := body[k*n : (k+1)*n]
		switch {
		case k < upPreamble:
			copy(seg, tmpl)
		case k < upPreamble+downPreamble:
			conjCopy(seg, tmpl)
		case bits[k-upPreamble-downPreamble] != 0:
			copy(seg, tmpl)
		default:
			zeroComplex(seg)
		}
	}
	if k0 >= upPreamble && k0 < upPreamble+downPreamble {
		conjInPlace(tmpl)
	}
}

// firstOnSymbol returns the index of the first non-silent symbol, or -1
// when the frame is all silence (no preamble, all-zero bits).
func firstOnSymbol(upPreamble, downPreamble int, bits []byte) int {
	if upPreamble+downPreamble > 0 {
		return 0
	}
	for i, b := range bits {
		if b != 0 {
			return i
		}
	}
	return -1
}

// growComplex returns dst extended to length m, reusing its storage
// when the capacity allows.
func growComplex(dst []complex128, m int) []complex128 {
	if cap(dst) >= m {
		return dst[:m]
	}
	out := make([]complex128, m)
	copy(out, dst)
	return out
}

func zeroComplex(v []complex128) {
	for i := range v {
		v[i] = 0
	}
}

func conjCopy(dst, src []complex128) {
	for i, v := range src {
		dst[i] = complex(real(v), -imag(v))
	}
}

func conjInPlace(v []complex128) {
	for i := range v {
		v[i] = complex(real(v[i]), -imag(v[i]))
	}
}
