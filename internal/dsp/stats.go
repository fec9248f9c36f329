package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the smallest and largest elements of xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// CDF is an empirical cumulative distribution function over a sample set.
// The paper reports several results as CDFs (Figs. 4, 9, 14) and
// complementary CDFs (Figs. 14b, 15a).
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (the input is copied).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Complementary returns P(X > x) = 1 - CDF(x).
func (c *CDF) Complementary(x float64) float64 {
	return 1 - c.At(x)
}

// Quantile returns the p-quantile (p in [0,1]) of the sample set.
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	p = Clamp(p, 0, 1)
	i := int(p * float64(len(c.sorted)-1))
	return c.sorted[i]
}
