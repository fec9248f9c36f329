// Package radio provides the RF-level substrate for the NetScatter
// simulation: unit conversions, thermal noise, path loss and link
// budgets, Rayleigh fading, Doppler, multipath, oscillator imperfection
// models, and the AP's ASK downlink with the tag-side envelope detector.
//
// The simulator works in normalized complex baseband: thermal noise has
// unit power (sigma² = 1), and a transmission arriving with SNR s dB is
// synthesized with amplitude sqrt(10^(s/10)). Absolute dBm quantities are
// used only in the link-budget layer that produces those SNRs.
package radio

import "math"

// DBToLinear converts a dB power ratio to linear.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }

// LinearToDB converts a linear power ratio to dB.
func LinearToDB(lin float64) float64 { return 10 * math.Log10(lin) }

// AmplitudeForSNRdB returns the per-sample signal amplitude that yields
// the given SNR against unit-power complex noise.
func AmplitudeForSNRdB(snrDB float64) float64 {
	return math.Sqrt(DBToLinear(snrDB))
}

// ThermalNoiseDBm returns the thermal noise floor in dBm for a bandwidth
// in Hz and a receiver noise figure in dB: -174 + 10log10(BW) + NF.
func ThermalNoiseDBm(bwHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bwHz) + noiseFigureDB
}

// DefaultNoiseFigureDB is the receiver noise figure assumed throughout
// the reproduction. With NF = 6 dB, the 500 kHz noise floor is
// -111 dBm, which makes the paper's quoted -123 dBm sensitivity at
// (500 kHz, SF 9) correspond to a -12 dB demodulation SNR.
const DefaultNoiseFigureDB = 6.0

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// CarrierHz is the 900 MHz ISM-band carrier the paper's hardware uses.
const CarrierHz = 900e6

// DopplerShiftHz returns the Doppler frequency shift for a device moving
// at speed m/s relative to a carrier at carrierHz: f·v/c. The paper
// (§4.2, Measurements 3) notes 10 m/s at 900 MHz is only 30 Hz, far
// below one FFT bin.
func DopplerShiftHz(speedMS, carrierHz float64) float64 {
	return carrierHz * speedMS / SpeedOfLight
}
