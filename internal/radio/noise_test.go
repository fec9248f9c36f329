package radio

import "netscatter/internal/dsp"

// AddAWGNOracle is the math/rand reference path: one
// Rand.ComplexNormal draw per sample. The statistical tests pin the
// stream engine's noise distribution against it.
func AddAWGNOracle(rng *dsp.Rand, sig []complex128, noisePower float64) {
	for i := range sig {
		sig[i] += rng.ComplexNormal(noisePower)
	}
}
