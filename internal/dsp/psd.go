package dsp

import "math"

// HannWindow returns an n-point Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// WelchPSD estimates the power spectral density of sig with Welch's
// method: Hann-windowed segments of length segLen (a power of two) with
// 50% overlap, averaged periodograms. The result has segLen bins covering
// [0, fs) in FFT order; use FFTShift to center DC. Used to regenerate the
// spectrogram-style views of Fig. 16.
func WelchPSD(sig []complex128, segLen int) []float64 {
	if !IsPow2(segLen) {
		panic("dsp: WelchPSD segment length must be a power of two")
	}
	if len(sig) < segLen {
		padded := make([]complex128, segLen)
		copy(padded, sig)
		sig = padded
	}
	win := HannWindow(segLen)
	var winPower float64
	for _, w := range win {
		winPower += w * w
	}
	plan := Plan(segLen)
	buf := make([]complex128, segLen)
	psd := make([]float64, segLen)
	hop := segLen / 2
	segments := 0
	for start := 0; start+segLen <= len(sig); start += hop {
		for i := 0; i < segLen; i++ {
			buf[i] = sig[start+i] * complex(win[i], 0)
		}
		plan.Forward(buf)
		for i, v := range buf {
			re, im := real(v), imag(v)
			psd[i] += (re*re + im*im) / winPower
		}
		segments++
	}
	if segments == 0 {
		segments = 1
	}
	for i := range psd {
		psd[i] /= float64(segments)
	}
	return psd
}

// FFTShift reorders a spectrum so the DC bin is centered. The returned
// slice is fresh.
func FFTShift(spec []float64) []float64 {
	n := len(spec)
	out := make([]float64, n)
	half := n / 2
	copy(out, spec[half:])
	copy(out[n-half:], spec[:half])
	return out
}
