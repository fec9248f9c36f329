package air

import (
	"math"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

var tp = chirp.Params{SF: 7, BW: 125e3, Oversample: 1}

func TestReceiveScalesToSNR(t *testing.T) {
	rng := dsp.NewRand(1)
	ch := NewChannel(tp, rng)
	ch.NoisePower = 0
	wave := make([]complex128, 4096)
	for i := range wave {
		wave[i] = 1
	}
	sig := ch.Receive(4096, []Transmission{{Waveform: wave, SNRdB: 13, FixedPhase: true}})
	want := math.Pow(10, 1.3)
	if got := meanPower(sig); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("signal power %v, want %v", got, want)
	}
}

func TestReceiveAddsUnitNoise(t *testing.T) {
	rng := dsp.NewRand(2)
	ch := NewChannel(tp, rng)
	sig := ch.Receive(100000, nil)
	if got := meanPower(sig); math.Abs(got-1) > 0.05 {
		t.Fatalf("noise power %v, want 1", got)
	}
}

func TestReceiveIntegerDelayPlacement(t *testing.T) {
	rng := dsp.NewRand(3)
	ch := NewChannel(tp, rng)
	ch.NoisePower = 0
	wave := []complex128{1, 2, 3}
	fs := tp.SampleRate()
	sig := ch.Receive(10, []Transmission{{Waveform: wave, SNRdB: 0, DelaySec: 4 / fs, FixedPhase: true}})
	if sig[3] != 0 || sig[4] != 1 || sig[5] != 2 || sig[6] != 3 {
		t.Fatalf("placement wrong: %v", sig[:8])
	}
}

func TestReceiveFractionalDelayMovesChirpPeak(t *testing.T) {
	// The whole reason Delayed exists: a half-sample delay must move
	// the dechirped peak by ~-0.5 bins, impossible to represent by
	// resampling the stored waveform.
	dem := chirp.NewDemodulator(tp, 16)
	rng := dsp.NewRand(4)
	ch := NewChannel(tp, rng)
	ch.NoisePower = 0

	delayed := func(frac float64) []complex128 {
		out := make([]complex128, tp.N()+1)
		for j := range out {
			u := float64(j) - frac
			if u < 0 || u >= float64(tp.N()) {
				continue
			}
			out[j] = chirp.EvalShifted(tp, 20, u)
		}
		return out
	}
	sig := ch.Receive(2*tp.N(), []Transmission{{
		Delayed:    delayed,
		SNRdB:      0,
		DelaySec:   0.5 / tp.SampleRate(),
		FixedPhase: true,
	}})
	frac := peakBin(dem, sig[:tp.N()])
	if math.Abs(frac-19.5) > 0.1 {
		t.Fatalf("delayed chirp peak at %v, want ~19.5", frac)
	}
}

func TestReceiveFreqOffset(t *testing.T) {
	mod := chirp.NewModulator(tp)
	dem := chirp.NewDemodulator(tp, 8)
	rng := dsp.NewRand(5)
	ch := NewChannel(tp, rng)
	ch.NoisePower = 0
	sig := ch.Receive(tp.N(), []Transmission{{
		Waveform:     mod.Symbol(10),
		SNRdB:        0,
		FreqOffsetHz: 2 * tp.BinHz(),
		FixedPhase:   true,
	}})
	frac := peakBin(dem, sig)
	if math.Abs(frac-12) > 0.1 {
		t.Fatalf("offset peak at %v, want 12", frac)
	}
}

func TestReceiveSuperposesMultiple(t *testing.T) {
	mod := chirp.NewModulator(tp)
	dem := chirp.NewDemodulator(tp, 1)
	rng := dsp.NewRand(6)
	ch := NewChannel(tp, rng)
	ch.NoisePower = 0
	sig := ch.Receive(tp.N(), []Transmission{
		{Waveform: mod.Symbol(5), SNRdB: 10},
		{Waveform: mod.Symbol(80), SNRdB: 10},
	})
	spec := dem.Spectrum(sig)
	p5, _ := chirp.PeakNear(dem, spec, 5, 0.5)
	p80, _ := chirp.PeakNear(dem, spec, 80, 0.5)
	p40, _ := chirp.PeakNear(dem, spec, 40, 0.5)
	if p5 < 100*p40 || p80 < 100*p40 {
		t.Fatalf("expected peaks at 5 and 80: %v %v (floor %v)", p5, p80, p40)
	}
}

func TestReceiveFadeGain(t *testing.T) {
	rng := dsp.NewRand(7)
	ch := NewChannel(tp, rng)
	ch.NoisePower = 0
	wave := []complex128{1, 1, 1, 1}
	sig := ch.Receive(4, []Transmission{{
		Waveform: wave, SNRdB: 0, FadeGain: complex(0.5, 0), FixedPhase: true,
	}})
	if math.Abs(real(sig[0])-0.5) > 1e-12 {
		t.Fatalf("fade gain not applied: %v", sig[0])
	}
}

func TestFrameLength(t *testing.T) {
	ch := NewChannel(tp, nil)
	if got := ch.FrameLength(10, 2); got != 12*tp.N() {
		t.Fatalf("FrameLength = %d", got)
	}
}

func TestReceiveEmptyTransmission(t *testing.T) {
	ch := NewChannel(tp, dsp.NewRand(8))
	ch.NoisePower = 0
	sig := ch.Receive(16, []Transmission{{}})
	for _, v := range sig {
		if v != 0 {
			t.Fatal("empty transmission contributed samples")
		}
	}
}

// peakBin is the fractional chirp bin of the strongest peak in sym's
// padded spectrum, at the demodulator's 1/ZeroPad resolution.
func peakBin(dem *chirp.Demodulator, sym []complex128) float64 {
	idx, _ := dsp.ArgmaxFloat(dem.Spectrum(sym))
	return dem.BinOf(idx)
}

// meanPower is the mean sample power of x.
func meanPower(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e / float64(len(x))
}
