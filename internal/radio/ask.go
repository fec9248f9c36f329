package radio

import (
	"fmt"
	"math"

	"netscatter/internal/dsp"
)

// ASKModem implements the AP's amplitude-shift-keyed downlink. The paper
// uses a 160 kbps ASK query that doubles as the timing reference for all
// concurrent devices; tags receive it with a microwatt envelope detector
// (§3.3, §4.1).
type ASKModem struct {
	// BitRate in bits/s (160 kbps in the paper).
	BitRate float64
	// SampleRate of the simulated baseband in Hz.
	SampleRate float64
	// Depth is the modulation depth: a '0' bit is transmitted at
	// (1-Depth) amplitude so the carrier never fully disappears (the
	// same carrier is the backscatter excitation tone).
	Depth float64
}

// DefaultASK is the paper's 160 kbps downlink sampled at 4 MHz.
var DefaultASK = ASKModem{BitRate: 160e3, SampleRate: 4e6, Depth: 0.8}

// SamplesPerBit returns the (integer) samples per ASK bit.
func (m ASKModem) SamplesPerBit() int {
	return int(m.SampleRate / m.BitRate)
}

// Duration returns the on-air time of n bits in seconds.
func (m ASKModem) Duration(nBits int) float64 {
	return float64(nBits) / m.BitRate
}

// Modulate converts bits (one bit per byte, values 0/1) to an amplitude
// envelope on a unit carrier.
func (m ASKModem) Modulate(bits []byte) []complex128 {
	spb := m.SamplesPerBit()
	if spb < 1 {
		panic(fmt.Sprintf("radio: ASK sample rate %v too low for bit rate %v", m.SampleRate, m.BitRate))
	}
	out := make([]complex128, len(bits)*spb)
	hi := complex(1, 0)
	lo := complex(1-m.Depth, 0)
	for i, b := range bits {
		v := lo
		if b != 0 {
			v = hi
		}
		for j := 0; j < spb; j++ {
			out[i*spb+j] = v
		}
	}
	return out
}

// Demodulate recovers nBits bits from the received envelope using a
// per-message adaptive threshold (midpoint between the min and max bit
// energies), matching what a comparator after an envelope detector does.
// A message whose bits are all equal has no spread to adapt to: when
// max/min stays below the square root of the depth's on/off power
// ratio, the threshold falls back to the midpoint of the nominal bit
// powers on a unit carrier, 1 and (1−Depth)².
func (m ASKModem) Demodulate(sig []complex128, nBits int) ([]byte, error) {
	spb := m.SamplesPerBit()
	if len(sig) < nBits*spb {
		return nil, fmt.Errorf("radio: ASK demodulate needs %d samples, have %d", nBits*spb, len(sig))
	}
	levels := make([]float64, nBits)
	for i := 0; i < nBits; i++ {
		var e float64
		for j := 0; j < spb; j++ {
			v := sig[i*spb+j]
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		levels[i] = e / float64(spb)
	}
	min, max := dsp.MinMax(levels)
	thresh := (min + max) / 2
	on, off := 1.0, (1-m.Depth)*(1-m.Depth)
	if max < min*math.Sqrt(on/off) {
		thresh = (on + off) / 2
	}
	bits := make([]byte, nBits)
	for i, l := range levels {
		if l > thresh {
			bits[i] = 1
		}
	}
	return bits, nil
}

// EnvelopeDetector models the tag's RF receive path: a passive detector
// with limited sensitivity that reports the query's RSSI for the
// power-adaptation loop.
type EnvelopeDetector struct {
	// SensitivityDBm is the weakest downlink the detector demodulates
	// (-49 dBm for the paper's COTS hardware).
	SensitivityDBm float64
	// GainErrorDB is a per-device static RSSI measurement error.
	GainErrorDB float64
}

// DefaultEnvelopeDetector matches the COTS hardware in §4.1.
var DefaultEnvelopeDetector = EnvelopeDetector{SensitivityDBm: -49}

// Detect returns the measured RSSI and whether the query is decodable.
// The measurement includes the detector's static gain error.
func (e EnvelopeDetector) Detect(rssiDBm float64) (measuredDBm float64, ok bool) {
	measured := rssiDBm + e.GainErrorDB
	return measured, rssiDBm >= e.SensitivityDBm
}
