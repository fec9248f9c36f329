// Package css holds the link-level math of classic single-transmitter
// chirp spread spectrum (LoRa-style modulation, §2.1 of the paper, where
// each symbol carries SF bits selected by one of 2^SF cyclic shifts):
// sensitivity, bitrate and rate adaptation, used by the LoRa-backscatter
// baselines and Table 1.
package css

import (
	"netscatter/internal/chirp"
	"netscatter/internal/radio"
)

// DemodSNRFloorDB returns the minimum demodulation SNR for a spreading
// factor, anchored so the (500 kHz, SF 9) configuration reproduces the
// paper's -123 dBm sensitivity with a 6 dB noise figure. Each SF step
// buys ~3 dB of processing gain.
func DemodSNRFloorDB(sf int) float64 {
	// SF9 -> -12 dB; 3 dB per SF.
	return -12 + 3*float64(9-sf)
}

// SensitivityDBm returns the receiver sensitivity for a CSS
// configuration: thermal noise floor plus the demodulation SNR floor.
// Reproduces Table 1's sensitivity column (±1 dB for the SF 6 row — see
// EXPERIMENTS.md for the discrepancy note).
func SensitivityDBm(p chirp.Params) float64 {
	return radio.ThermalNoiseDBm(p.BW, radio.DefaultNoiseFigureDB) + DemodSNRFloorDB(p.SF)
}

// Table1Configs lists the six modulation configurations of Table 1.
func Table1Configs() []chirp.Params {
	return []chirp.Params{
		{SF: 9, BW: 500e3, Oversample: 1},
		{SF: 8, BW: 500e3, Oversample: 1},
		{SF: 8, BW: 250e3, Oversample: 1},
		{SF: 7, BW: 250e3, Oversample: 1},
		{SF: 7, BW: 125e3, Oversample: 1},
		{SF: 6, BW: 125e3, Oversample: 1},
	}
}

// RateOption is one (SF, BW) choice available to the ideal
// rate-adaptation baseline.
type RateOption struct {
	Params     chirp.Params
	BitRate    float64 // SF·BW/2^SF
	MinSNRdB   float64 // demodulation floor at this BW
	SensDBm    float64
	ChirpSlope float64 // BW²/2^SF — configs sharing a slope cannot coexist (§2.2)
}

// MaxLoRaBitRate caps the rate-adaptation baseline, following the
// paper's statement that high-SNR devices pick at most 32 kbps.
const MaxLoRaBitRate = 32e3

// RateTable enumerates the rate options at a fixed bandwidth for
// SF 6..12, highest rate first.
func RateTable(bw float64) []RateOption {
	var out []RateOption
	for sf := 6; sf <= 12; sf++ {
		p := chirp.Params{SF: sf, BW: bw, Oversample: 1}
		rate := p.LoRaBitRate()
		if rate > MaxLoRaBitRate {
			rate = MaxLoRaBitRate
		}
		out = append(out, RateOption{
			Params:     p,
			BitRate:    rate,
			MinSNRdB:   DemodSNRFloorDB(sf),
			SensDBm:    SensitivityDBm(p),
			ChirpSlope: bw * bw / float64(p.Chips()),
		})
	}
	return out
}

// BestRate returns the highest-bitrate option whose SNR floor the given
// link SNR satisfies, or ok=false if even the slowest option fails. This
// is the "ideal rate adaptation" oracle of §4.4 (using the SX1276-style
// SNR table).
func BestRate(snrDB float64, opts []RateOption) (RateOption, bool) {
	best := RateOption{}
	found := false
	for _, o := range opts {
		if snrDB >= o.MinSNRdB && (!found || o.BitRate > best.BitRate) {
			best = o
			found = true
		}
	}
	return best, found
}
