// Package choir models the Choir comparison of §2.2: decoding
// concurrent LoRa transmissions by the fractional FFT-bin offsets that
// hardware imperfections induce. It provides the paper's two analytic
// collision formulas and their Monte-Carlo counterparts (experiment C1).
// Why the trick fails for backscatter — baseband (< 10 MHz) devices have
// ~90x smaller absolute frequency offsets than 900 MHz radios,
// compressing every device into a fraction of one bin — is experiment
// F4's oscillator draw.
package choir

import "netscatter/internal/dsp"

// FracResolution is the fractional-bin resolution Choir relies on
// (one-tenth of an FFT bin, §2.2).
const FracResolution = 10

// UniqueFractionProb returns the probability that n concurrent
// transmitters all occupy distinct tenth-of-a-bin fractions:
// 10!/((10-n)!·10^n). For n = 5 this is only ~30%, the paper's argument
// for why Choir tops out at 5-10 devices.
func UniqueFractionProb(n int) float64 {
	if n > FracResolution {
		return 0
	}
	p := 1.0
	for i := 0; i < n; i++ {
		p *= float64(FracResolution-i) / FracResolution
	}
	return p
}

// SameShiftCollisionProb returns the probability that at least two of n
// transmitters pick the same cyclic shift in one symbol:
// 1 - Π_{i=1..n}(1 - (i-1)/2^SF), ~ n(n-1)/2^(SF+1) (§2.2). For SF 9,
// n = 10 this is ~9%, rising to ~32% at n = 20.
func SameShiftCollisionProb(n, sf int) float64 {
	bins := float64(int(1) << sf)
	p := 1.0
	for i := 1; i <= n; i++ {
		p *= 1 - float64(i-1)/bins
	}
	return 1 - p
}

// SameShiftCollisionApprox is the paper's small-n approximation
// n(n-1)/2^(SF+1).
func SameShiftCollisionApprox(n, sf int) float64 {
	return float64(n*(n-1)) / float64(int(1)<<(sf+1))
}

// MonteCarloSameShift estimates SameShiftCollisionProb empirically.
func MonteCarloSameShift(n, sf, trials int, rng *dsp.Rand) float64 {
	bins := 1 << sf
	collisions := 0
	seen := make([]int, bins)
	for t := 1; t <= trials; t++ {
		hit := false
		for i := 0; i < n; i++ {
			b := rng.Intn(bins)
			if seen[b] == t {
				hit = true
				break
			}
			seen[b] = t
		}
		if hit {
			collisions++
		}
	}
	return float64(collisions) / float64(trials)
}

// MonteCarloUniqueFraction estimates UniqueFractionProb empirically.
func MonteCarloUniqueFraction(n, trials int, rng *dsp.Rand) float64 {
	unique := 0
	var seen [FracResolution]int
	for t := 1; t <= trials; t++ {
		ok := true
		for i := 0; i < n; i++ {
			f := rng.Intn(FracResolution)
			if seen[f] == t {
				ok = false
				break
			}
			seen[f] = t
		}
		if ok {
			unique++
		}
	}
	return float64(unique) / float64(trials)
}
