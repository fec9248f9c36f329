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
