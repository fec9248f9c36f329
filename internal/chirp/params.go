// Package chirp implements chirp spread spectrum (CSS) symbol generation
// and demodulation: baseline up/down chirps, cyclic shifts, dechirping and
// FFT-bin detection with zero-padded sub-bin resolution.
//
// This is the modulation substrate of NetScatter's distributed CSS coding
// (internal/core); internal/css holds the classic LoRa link math.
// Terminology follows §2.1 of the paper: a symbol is one upchirp of
// duration 2^SF/BW; cyclically shifting it in time moves the dechirped
// FFT peak by the same number of bins.
package chirp

import (
	"fmt"
	"math"

	"netscatter/internal/dsp"
)

// Params describes one CSS physical-layer configuration.
type Params struct {
	// SF is the spreading factor; a symbol spans 2^SF chips.
	SF int
	// BW is the chirp bandwidth in Hz. With critical sampling
	// (Oversample == 1) it is also the sample rate.
	BW float64
	// Oversample multiplies the sample rate: fs = Oversample·BW.
	// Oversample == 1 is the standard receiver; Oversample == 2 models
	// the paper's bandwidth-aggregation mode (§3.1, Fig. 5) where one
	// FFT covers an aggregate band of 2·BW.
	Oversample int
}

// Default500k9 is the configuration the paper deploys: 500 kHz bandwidth,
// SF 9, 976 bps per device (Table 1, first row).
var Default500k9 = Params{SF: 9, BW: 500e3, Oversample: 1}

// Validate reports a descriptive error for unusable parameter sets.
func (p Params) Validate() error {
	if p.SF < 5 || p.SF > 12 {
		return fmt.Errorf("chirp: SF %d outside supported range [5,12]", p.SF)
	}
	if p.BW <= 0 {
		return fmt.Errorf("chirp: bandwidth %v must be positive", p.BW)
	}
	if p.Oversample < 1 || p.Oversample > 8 || !dsp.IsPow2(p.Oversample) {
		return fmt.Errorf("chirp: oversample %d must be a power of two in [1,8]", p.Oversample)
	}
	return nil
}

func (p Params) norm() Params {
	if p.Oversample == 0 {
		p.Oversample = 1
	}
	return p
}

// Chips returns the number of chips (and FFT bins at critical sampling)
// per symbol: 2^SF.
func (p Params) Chips() int { return 1 << p.SF }

// N returns the number of samples per symbol: Oversample·2^SF.
func (p Params) N() int { return p.norm().Oversample * p.Chips() }

// SampleRate returns the simulation sample rate in Hz.
func (p Params) SampleRate() float64 { return float64(p.norm().Oversample) * p.BW }

// SymbolPeriod returns the duration of one chirp symbol in seconds:
// 2^SF/BW.
func (p Params) SymbolPeriod() float64 { return float64(p.Chips()) / p.BW }

// BinHz returns the frequency width of one FFT bin: BW/2^SF.
func (p Params) BinHz() float64 { return p.BW / float64(p.Chips()) }

// SymbolRate returns symbols per second: BW/2^SF.
func (p Params) SymbolRate() float64 { return p.BW / float64(p.Chips()) }

// OOKBitRate returns the per-device NetScatter bitrate (one ON-OFF keyed
// bit per symbol): BW/2^SF. Table 1's "Bit Rate" column.
func (p Params) OOKBitRate() float64 { return p.SymbolRate() }

// LoRaBitRate returns the classic CSS bitrate (SF bits per symbol):
// SF·BW/2^SF.
func (p Params) LoRaBitRate() float64 { return float64(p.SF) * p.SymbolRate() }

// TimeToleranceSec returns the largest timing mismatch a SKIP-spaced
// assignment tolerates before adjacent devices collide: (SKIP-1) FFT bins
// worth of time, (SKIP-1)/BW (§3.2.1: ΔFFTbin = Δt·BW).
func (p Params) TimeToleranceSec(skip int) float64 {
	return float64(skip-1) / p.BW
}

// FreqToleranceHz returns the largest frequency mismatch a SKIP-spaced
// assignment tolerates: (SKIP-1) bins, (SKIP-1)·BW/2^SF (§3.2.2:
// ΔFFTbin = 2^SF·Δf/BW).
func (p Params) FreqToleranceHz(skip int) float64 {
	return float64(skip-1) * p.BinHz()
}

// TimeOffsetToBins converts a timing offset in seconds to an FFT-bin
// displacement: ΔFFTbin = Δt·BW.
func (p Params) TimeOffsetToBins(dt float64) float64 { return dt * p.BW }

// FreqOffsetToBins converts a frequency offset in Hz to an FFT-bin
// displacement: ΔFFTbin = 2^SF·Δf/BW.
func (p Params) FreqOffsetToBins(df float64) float64 {
	return df * float64(p.Chips()) / p.BW
}

// String implements fmt.Stringer ("BW=500kHz SF=9").
func (p Params) String() string {
	return fmt.Sprintf("BW=%gkHz SF=%d", p.BW/1e3, p.SF)
}

// Upchirp returns the baseline upchirp symbol: a linear frequency sweep
// from -BW/2 to +BW/2 over one symbol period, sampled at the params'
// sample rate. Phase: φ(t) = 2π(-BW/2·t + BW/(2T)·t²).
func Upchirp(p Params) []complex128 {
	p = p.norm()
	n := p.N()
	fs := p.SampleRate()
	t0 := p.SymbolPeriod()
	out := make([]complex128, n)
	slope := p.BW / t0
	for i := 0; i < n; i++ {
		t := float64(i) / fs
		phase := 2 * math.Pi * (-p.BW/2*t + slope/2*t*t)
		out[i] = complex(math.Cos(phase), math.Sin(phase))
	}
	return out
}

// Downchirp returns the conjugate of the baseline upchirp; multiplying a
// received upchirp by it de-spreads the symbol into a constant tone.
func Downchirp(p Params) []complex128 {
	up := Upchirp(p)
	for i, v := range up {
		up[i] = complex(real(v), -imag(v))
	}
	return up
}

// EvalShifted evaluates the shifted upchirp symbol at the continuous
// sample coordinate x in [0, N). It is the analytic counterpart of
// Modulator.Symbol: at integer x it reproduces the sampled symbol
// exactly, and at fractional x it gives the waveform the hardware
// actually transmits between sample instants — which an FFT interpolator
// cannot (the cyclic-shift wrap makes the symbol non-bandlimited).
// Synthesizing fractionally-delayed frames through this evaluator keeps
// timing-offset physics exact, including the partial self-cancellation
// of the two wrap segments that reduces the dechirped peak at
// half-sample offsets.
func EvalShifted(p Params, shift int, x float64) complex128 {
	p = p.norm()
	n := float64(p.N())
	var phase float64
	if p.Oversample == 1 {
		// Time cyclic shift: base phase evaluated at (x+shift) mod N,
		// with φ(u) = 2π(u²/(2N) - u/2) in sample units.
		u := math.Mod(x+float64(shift), n)
		if u < 0 {
			u += n
		}
		phase = 2 * math.Pi * (u*u/(2*n) - u/2)
	} else {
		// Aggregate mode: frequency-shifted base chirp.
		fs := p.SampleRate()
		t := x / fs
		t0 := p.SymbolPeriod()
		slope := p.BW / t0
		phase = 2*math.Pi*(-p.BW/2*t+slope/2*t*t) +
			2*math.Pi*float64(shift)*p.BinHz()*t
	}
	return complex(math.Cos(phase), math.Sin(phase))
}

// CyclicShift returns a copy of sym rotated left by shift samples:
// out[n] = sym[(n+shift) mod N]. Shifting the baseline upchirp by c chips
// moves its dechirped FFT peak to bin c.
func CyclicShift(sym []complex128, shift int) []complex128 {
	n := len(sym)
	out := make([]complex128, n)
	shift = dsp.WrapIndex(shift, n)
	copy(out, sym[shift:])
	copy(out[n-shift:], sym[:shift])
	return out
}

// ApplyFreqOffset rotates sig in place by a complex exponential of df Hz
// at sample rate fs, modeling an oscillator offset.
func ApplyFreqOffset(sig []complex128, df, fs float64) {
	if df == 0 {
		return
	}
	step := 2 * math.Pi * df / fs
	// Incremental rotation avoids a sin/cos per sample.
	rot := complex(math.Cos(step), math.Sin(step))
	cur := complex(1, 0)
	for i := range sig {
		sig[i] *= cur
		cur *= rot
	}
}

// Scale multiplies sig in place by the real amplitude a.
func Scale(sig []complex128, a float64) {
	c := complex(a, 0)
	for i := range sig {
		sig[i] *= c
	}
}
