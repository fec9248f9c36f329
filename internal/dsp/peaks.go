package dsp

import "math"

// ArgmaxFloat returns the index and value of the largest element of xs.
func ArgmaxFloat(xs []float64) (idx int, val float64) {
	idx = -1
	val = math.Inf(-1)
	for i, x := range xs {
		if x > val {
			val = x
			idx = i
		}
	}
	return idx, val
}

// MaxInWindow returns the index and value of the largest element of power
// in the circular window [center-half, center+half] (inclusive). The
// NetScatter decoder uses this to search for a device's FFT peak within
// the guard region around its assigned (zero-padded) bin.
func MaxInWindow(power []float64, center, half int) (idx int, val float64) {
	n := len(power)
	idx = -1
	val = math.Inf(-1)
	for off := -half; off <= half; off++ {
		i := WrapIndex(center+off, n)
		if power[i] > val {
			val = power[i]
			idx = i
		}
	}
	return idx, val
}

// Peak describes a local maximum in a power spectrum.
type Peak struct {
	Bin   int     // index into the (possibly zero-padded) spectrum
	Power float64 // |X[bin]|²
}

// FindPeaksAbove returns all local maxima in power whose value exceeds
// threshold, treating the spectrum as circular. Plateaus report their
// first index.
func FindPeaksAbove(power []float64, threshold float64) []Peak {
	n := len(power)
	if n == 0 {
		return nil
	}
	var peaks []Peak
	for i := 0; i < n; i++ {
		p := power[i]
		if p < threshold {
			continue
		}
		prev := power[WrapIndex(i-1, n)]
		next := power[WrapIndex(i+1, n)]
		if p > prev && p >= next {
			peaks = append(peaks, Peak{Bin: i, Power: p})
		}
	}
	return peaks
}

// QuadraticInterpolate refines a peak location using the standard
// three-point parabolic fit on a dB-scaled spectrum. It returns the
// fractional offset in (-0.5, 0.5) to add to the integer peak index.
func QuadraticInterpolate(power []float64, i int) float64 {
	n := len(power)
	pm := power[WrapIndex(i-1, n)]
	p0 := power[i]
	pp := power[WrapIndex(i+1, n)]
	if pm <= 0 || p0 <= 0 || pp <= 0 {
		return 0
	}
	a := math.Log(pm)
	b := math.Log(p0)
	c := math.Log(pp)
	den := a - 2*b + c
	if den == 0 {
		return 0
	}
	d := 0.5 * (a - c) / den
	return Clamp(d, -0.5, 0.5)
}
