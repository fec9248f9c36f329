package core

import (
	"fmt"
	"math"

	"netscatter/internal/chirp"
	"netscatter/internal/synth"
)

// Encoder produces a single device's transmit waveform: preamble chirps
// and ON-OFF keyed payload chirps, all using the device's assigned
// cyclic shift. In hardware this is the FPGA chirp generator (§4.1);
// here it synthesizes baseband samples for the channel simulator
// through the shared phase-recurrence engine (internal/synth) — the
// analytic chirp.EvalShifted physics at two complex multiplies per
// sample, with whole frames reduced to one template symbol plus copies.
type Encoder struct {
	p     chirp.Params
	syn   *synth.Synthesizer
	shift int
}

// NewEncoder builds an encoder for one device. The underlying
// synthesizer (and its symbol bank) is cached per parameter set, so
// encoders are cheap to create in bulk.
func NewEncoder(p chirp.Params, shift int) *Encoder {
	syn := synth.For(p)
	return &Encoder{p: syn.Params(), syn: syn, shift: shift}
}

// Shift returns the device's assigned cyclic shift.
func (e *Encoder) Shift() int { return e.shift }

// SetShift reassigns the device's cyclic shift (the AP can reshuffle
// assignments in its query, §3.3.3).
func (e *Encoder) SetShift(shift int) { e.shift = shift }

// Params returns the chirp parameters.
func (e *Encoder) Params() chirp.Params { return e.p }

// AppendFrame appends the full frame waveform for payload to dst:
// 6 shifted upchirps, 2 shifted downchirps, then one shifted upchirp per
// '1' bit and one symbol of silence per '0' bit of FrameBits(payload).
func (e *Encoder) AppendFrame(dst []complex128, payload []byte) []complex128 {
	return e.AppendFrameBits(dst, FrameBits(payload))
}

// AppendFrameBits is AppendFrame for a caller-supplied bit section
// (already including any checksum). Symbols are written in place from
// the synthesizer's bank — no per-symbol scratch slices.
func (e *Encoder) AppendFrameBits(dst []complex128, bits []byte) []complex128 {
	return e.syn.AppendFrame(dst, e.shift, PreambleUpSymbols, PreambleDownSymbols, bits)
}

// FrameWaveform returns AppendFrame into a fresh slice.
func (e *Encoder) FrameWaveform(payload []byte) []complex128 {
	n := e.p.N()
	dst := make([]complex128, 0, n*FrameSymbols(len(payload)))
	return e.AppendFrame(dst, payload)
}

// FrameWaveformDelayed synthesizes the frame waveform delayed by frac
// samples (0 <= frac < 1), evaluating each symbol's chirp phase at the
// shifted time coordinates. This is the exact waveform a tag starting
// frac samples late contributes to the AP's sample grid: sample j holds
// frame((j - frac)), with samples near symbol boundaries correctly
// falling into the previous symbol's tail. Integer delays are applied by
// placement (air.Channel); together they realize arbitrary real-valued
// hardware delays with exact chirp physics.
func (e *Encoder) FrameWaveformDelayed(payload []byte, frac float64) []complex128 {
	return e.FrameBitsWaveformDelayed(FrameBits(payload), frac)
}

// FrameBitsWaveformDelayed is FrameWaveformDelayed for a caller-supplied
// bit section (already including any checksum).
func (e *Encoder) FrameBitsWaveformDelayed(bits []byte, frac float64) []complex128 {
	return e.FrameBitsWaveformDelayedInto(nil, bits, frac)
}

// FrameBitsWaveformDelayedInto is FrameBitsWaveformDelayed writing into
// dst's storage when its capacity suffices, so a caller reusing one
// buffer per device synthesizes frames without allocating.
func (e *Encoder) FrameBitsWaveformDelayedInto(dst []complex128, bits []byte, frac float64) []complex128 {
	return e.syn.FrameDelayedInto(dst, e.shift, PreambleUpSymbols, PreambleDownSymbols, bits, frac)
}

// FrameBitsWaveformMixedInto synthesizes the delayed frame with a
// frequency offset of freqOffsetHz and a complex carrier gain folded
// into the recurrence — the waveform air.Channel would otherwise
// produce by synthesizing, rotating and scaling in three passes.
func (e *Encoder) FrameBitsWaveformMixedInto(dst []complex128, bits []byte, frac, freqOffsetHz float64, gain complex128) []complex128 {
	omega := 2 * math.Pi * freqOffsetHz / e.p.SampleRate()
	return e.syn.FrameMixedInto(dst, e.shift, PreambleUpSymbols, PreambleDownSymbols, bits, frac, omega, gain)
}

// FrameBitsWaveformMixedTemplates synthesizes the mixed frame's
// template symbols into tmpl (grown to 2N and returned for reuse) —
// the per-device setup step of air.MultiChannel's receive, after which
// any sub-range of a receive buffer can be accumulated with
// FrameBitsWaveformMixedAddRange.
func (e *Encoder) FrameBitsWaveformMixedTemplates(tmpl []complex128, bits []byte, frac, freqOffsetHz float64, gain complex128) []complex128 {
	omega := 2 * math.Pi * freqOffsetHz / e.p.SampleRate()
	return e.syn.FrameMixedTemplates(tmpl, e.shift, PreambleUpSymbols, PreambleDownSymbols, bits, frac, omega, gain)
}

// FrameBitsWaveformMixedAddRange accumulates the [lo, hi) clip of the
// mixed frame (placed at sample offset at) into out, reading templates
// prepared by FrameBitsWaveformMixedTemplates with the same arguments.
// Accumulating disjoint tiles that cover the buffer reproduces one
// whole-buffer call bit for bit (see synth.FrameMixedAccumulateRange).
func (e *Encoder) FrameBitsWaveformMixedAddRange(out []complex128, lo, hi, at int, tmpl []complex128, bits []byte, frac, freqOffsetHz float64) {
	omega := 2 * math.Pi * freqOffsetHz / e.p.SampleRate()
	e.syn.FrameMixedAccumulateRange(out, lo, hi, at, tmpl, PreambleUpSymbols, PreambleDownSymbols, bits, frac, omega)
}

// FrameBitsSchedule fills sc with the per-round accumulate plan of the
// mixed frame FrameBitsWaveformMixedAddRange would add at offset at:
// its symbol-0 sample and, per symbol, the template and rotation (see
// synth.FrameSchedule). With the matching templates, synth's
// AccumulateFrames then adds the frame bit-identically to the range
// calls, without recomputing the plan per tile.
func (e *Encoder) FrameBitsSchedule(sc *synth.FrameSchedule, bits []byte, at int, frac, freqOffsetHz float64) {
	omega := 2 * math.Pi * freqOffsetHz / e.p.SampleRate()
	e.syn.FrameMixedSchedule(sc, at, PreambleUpSymbols, PreambleDownSymbols, bits, frac, omega)
}

// OnFraction returns the fraction of payload symbols that carry energy
// for the given bits — used by energy accounting in the simulator.
func OnFraction(bits []byte) float64 {
	if len(bits) == 0 {
		return 0
	}
	on := 0
	for _, b := range bits {
		if b != 0 {
			on++
		}
	}
	return float64(on) / float64(len(bits))
}

// ValidateShiftForBook checks that a shift is assignable in the given
// code book; used when programming devices.
func ValidateShiftForBook(book *CodeBook, shift int) error {
	if _, ok := book.SlotOfShift(shift); !ok {
		return fmt.Errorf("core: shift %d is not a SKIP-%d slot", shift, book.Skip())
	}
	return nil
}
