// Package hw models the backscatter tag hardware that NetScatter's
// protocol depends on: the impedance switch network that realizes
// multiple transmit power gains (Fig. 7), the per-packet hardware delay
// of the envelope-detector → MCU → FPGA chain (§3.2.1, Fig. 14b), and
// per-device crystal behaviour (Fig. 14a).
package hw

import (
	"fmt"
	"math"
)

// AntennaImpedanceOhms is the reference (antenna) impedance the
// reflection coefficients are computed against.
const AntennaImpedanceOhms = 50.0

// ReflectionCoeff returns the reflection coefficient Γ = (Z-Za)/(Z+Za)
// for a purely resistive termination Z against the antenna impedance.
// math.Inf(1) is accepted for an open circuit (Γ = 1).
func ReflectionCoeff(zOhms float64) float64 {
	if math.IsInf(zOhms, 1) {
		return 1
	}
	return (zOhms - AntennaImpedanceOhms) / (zOhms + AntennaImpedanceOhms)
}

// PowerGain returns the backscatter transmit power gain for switching
// between two terminations: |Γ0-Γ1|²/4 (§3.2.3). Switching between a
// short (Γ=-1) and an open (Γ=1) yields the maximum gain of 1 (0 dB).
func PowerGain(z0, z1 float64) float64 {
	g0 := ReflectionCoeff(z0)
	g1 := ReflectionCoeff(z1)
	d := g0 - g1
	return d * d / 4
}

// PowerGainDB returns PowerGain in dB.
func PowerGainDB(z0, z1 float64) float64 {
	return 10 * math.Log10(PowerGain(z0, z1))
}

// ImpedanceForGainDB solves for the Z0 (switched against an open
// circuit) that produces the requested power gain in dB (<= 0). This is
// how the three discrete power levels of the switch network are chosen.
func ImpedanceForGainDB(gainDB float64) (float64, error) {
	if gainDB > 0 {
		return 0, fmt.Errorf("hw: backscatter power gain %v dB must be <= 0", gainDB)
	}
	// |Γ0 - 1|²/4 = g  =>  Γ0 = 1 - 2√g  (taking the branch with Γ0 <= 1).
	g := math.Pow(10, gainDB/10)
	gamma0 := 1 - 2*math.Sqrt(g)
	if gamma0 >= 1 {
		return 0, fmt.Errorf("hw: gain %v dB unreachable", gainDB)
	}
	// Γ = (Z-Za)/(Z+Za)  =>  Z = Za(1+Γ)/(1-Γ).
	z := AntennaImpedanceOhms * (1 + gamma0) / (1 - gamma0)
	return z, nil
}

// PowerLevel is one setting of the tag's switch network.
type PowerLevel struct {
	GainDB float64 // transmit power gain relative to maximum
	Z0Ohms float64 // termination switched against the open circuit
}

// PowerLevels returns the paper's three power settings (0, -4, -10 dB)
// with the impedances that realize them. The switch network is three
// resistors on NMOS switches (§4.1, IC simulation), so more levels
// would cost almost nothing.
func PowerLevels() []PowerLevel {
	gains := []float64{0, -4, -10}
	out := make([]PowerLevel, len(gains))
	for i, g := range gains {
		z, err := ImpedanceForGainDB(g)
		if err != nil {
			panic(err)
		}
		out[i] = PowerLevel{GainDB: g, Z0Ohms: z}
	}
	return out
}
