package core

import (
	"math"
	"math/cmplx"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

func TestFrameWaveformLayout(t *testing.T) {
	p := testParams
	enc := NewEncoder(p, 12)
	payload := []byte{0xF0} // bits 11110000 + CRC
	w := enc.FrameWaveform(payload)
	n := p.N()
	if len(w) != FrameSymbols(1)*n {
		t.Fatalf("waveform length %d", len(w))
	}
	bits := FrameBits(payload)
	for i, b := range bits {
		seg := w[(PreambleSymbols+i)*n : (PreambleSymbols+i+1)*n]
		var energy float64
		for _, v := range seg {
			energy += real(v)*real(v) + imag(v)*imag(v)
		}
		if b == 1 && energy < float64(n)/2 {
			t.Fatalf("bit %d ('1') has energy %v", i, energy)
		}
		if b == 0 && energy != 0 {
			t.Fatalf("bit %d ('0') has energy %v", i, energy)
		}
	}
}

func TestFrameWaveformPreambleStructure(t *testing.T) {
	p := testParams
	shift := 44
	enc := NewEncoder(p, shift)
	w := enc.FrameWaveform([]byte{0x00})
	n := p.N()
	dem := chirp.NewDemodulator(p, 8)
	// Six upchirps at the assigned shift...
	for sym := 0; sym < PreambleUpSymbols; sym++ {
		idx, _ := dsp.ArgmaxFloat(dem.Spectrum(w[sym*n : (sym+1)*n]))
		frac := dem.BinOf(idx)
		if math.Abs(frac-float64(shift)) > 0.1 {
			t.Fatalf("preamble up %d peak at %v", sym, frac)
		}
	}
	// ...then two downchirps carrying the same shift (§3.3.1).
	want := chirp.NewModulator(p).Symbol(shift)
	for i, v := range want {
		want[i] = cmplx.Conj(v)
	}
	for sym := PreambleUpSymbols; sym < PreambleSymbols; sym++ {
		seg := w[sym*n : (sym+1)*n]
		for i := range want {
			if cmplx.Abs(seg[i]-want[i]) > 1e-9 {
				t.Fatalf("preamble down symbol %d differs at %d", sym, i)
			}
		}
	}
}

func TestFrameWaveformDelayedMatchesUndelayedAtZero(t *testing.T) {
	p := testParams
	enc := NewEncoder(p, 3)
	payload := []byte{0xAB, 0xCD}
	a := enc.FrameWaveform(payload)
	b := enc.FrameWaveformDelayed(payload, 0)
	if len(b) != len(a) {
		t.Fatalf("lengths differ: %d vs %d", len(b), len(a))
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestFrameWaveformDelayedSampleRelation(t *testing.T) {
	// A frac delay shifts every interior sample to the previous
	// continuous-time coordinate: delayed[j] == frame(j - frac).
	p := testParams
	enc := NewEncoder(p, 30)
	payload := []byte{0xFF} // all ones: continuous chirps, easy to check
	frac := 0.25
	w := enc.FrameWaveformDelayed(payload, frac)
	n := p.N()
	// Check interior samples of the first preamble symbol.
	for i := 1; i < n; i++ {
		want := chirp.EvalShifted(p, 30, float64(i)-frac)
		if cmplx.Abs(w[i]-want) > 1e-9 {
			t.Fatalf("sample %d: %v != %v", i, w[i], want)
		}
	}
	// First sample of the second symbol belongs to the FIRST symbol's
	// tail (u = n - frac < n).
	want := chirp.EvalShifted(p, 30, float64(n)-frac)
	if cmplx.Abs(w[n]-want) > 1e-9 {
		t.Fatalf("boundary sample: %v != %v", w[n], want)
	}
}

func TestGhostRejection(t *testing.T) {
	// A strong device's side lobes replicate its OOK pattern at other
	// bins; an unoccupied candidate shift must not "decode" that
	// replica as a real device.
	p := chirp.Default500k9
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	rng := dsp.NewRand(3)
	payload := []byte{0x5A, 0x11, 0xFE}
	bits := FrameBits(payload)
	enc := NewEncoder(p, 400)
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+len(bits), 2), []air.Transmission{{
		Delayed: func(f float64) []complex128 {
			return enc.FrameWaveformDelayed(payload, f)
		},
		SNRdB:    18,
		DelaySec: 0.6e-6,
	}})
	// Candidates: the real device plus many silent shifts that sit in
	// its side-lobe skirt.
	cands := []int{400, 396, 404, 410, 2, 102, 200}
	res, err := dec.DecodeFrame(sig, 0, cands, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Devices[0].Detected || !res.Devices[0].CRCOK {
		t.Fatal("real device lost")
	}
	for _, d := range res.Devices[1:] {
		if d.Detected {
			t.Fatalf("ghost detected at shift %d (meanPk %.0f vs real %.0f)",
				d.Shift, d.MeanPeakPower, res.Devices[0].MeanPeakPower)
		}
	}
}

func TestGhostRejectionSparesDistinctPayloads(t *testing.T) {
	// Two genuine devices 20 dB apart with different payloads must both
	// survive (the power-aware allocation separates them by 256 bins).
	p := chirp.Default500k9
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	rng := dsp.NewRand(4)
	plA := []byte{0x01, 0x02, 0x03}
	plB := []byte{0xFD, 0xFC, 0xFB}
	bits := len(plA)*8 + CRCBits
	encA := NewEncoder(p, 0)
	encB := NewEncoder(p, 256)
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bits, 2), []air.Transmission{
		{Delayed: func(f float64) []complex128 { return encA.FrameWaveformDelayed(plA, f) }, SNRdB: 18},
		{Delayed: func(f float64) []complex128 { return encB.FrameWaveformDelayed(plB, f) }, SNRdB: -2},
	})
	res, err := dec.DecodeFrame(sig, 0, []int{0, 256}, bits)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Devices {
		if !d.Detected || !d.CRCOK {
			t.Fatalf("device %d demoted incorrectly: %+v", i, d)
		}
	}
}
