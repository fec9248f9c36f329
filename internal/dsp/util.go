package dsp

import "math"

// DirichletMag returns the magnitude of the periodic sinc (Dirichlet)
// kernel |sin(πx)/(N·sin(πx/N))| that a rectangular window of N samples
// produces at a fractional-bin offset x. This is the analytic shape of
// the side lobes in Fig. 8 of the paper: the first side lobe peaks near
// -13.3 dB, the second near -17.8 dB, the third near -20.8 dB.
func DirichletMag(x float64, n int) float64 {
	if x == 0 {
		return 1
	}
	num := math.Sin(math.Pi * x)
	den := float64(n) * math.Sin(math.Pi*x/float64(n))
	if den == 0 {
		return 1
	}
	return math.Abs(num / den)
}

// WrapIndex reduces i into [0, n) for cyclic indexing (Go's % can be
// negative for negative operands).
func WrapIndex(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// CircularDistance returns the distance between bins a and b on a circle
// of n bins: min(|a-b|, n-|a-b|). Cyclic shifts alias (Fig. 15b is
// symmetric around the center), so interference between two devices is
// governed by this circular bin distance, not the linear one.
func CircularDistance(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	d %= n
	if d > n-d {
		d = n - d
	}
	return d
}

// WrapFrac reduces a fractional bin offset into (-n/2, n/2].
func WrapFrac(x float64, n int) float64 {
	half := float64(n) / 2
	for x > half {
		x -= float64(n)
	}
	for x <= -half {
		x += float64(n)
	}
	return x
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
