package core

import "netscatter/internal/chirp"

// DecodeFrameOracle is DecodeFrame through the single-symbol pipeline —
// one chirp.Demodulator.Spectrum and one window scan per symbol, the
// original per-symbol receiver, with the preamble fold and the
// thresholds and CRC run once over the whole candidate set. It is the bit-exactness oracle for the
// batched path: both produce identical FrameDecodes for identical
// inputs, and the batch kernels are only allowed optimizations that
// preserve that equality.
func (d *Decoder) DecodeFrameOracle(sig []complex128, start int, shifts []int, payloadBits int) (*FrameDecode, error) {
	if err := d.begin(sig, start, shifts, payloadBits); err != nil {
		return nil, err
	}
	n := d.book.Params().N()

	copy(d.preSpec[:], d.symbolSpectra(sig, start, PreambleUpSymbols))
	d.preambleNoise(0, PreambleUpSymbols, 1)
	noise := d.reduceNoise()
	d.accumPreamble(d.preSpec[:], shifts, noise, 0, len(shifts))
	d.releasePreamble()

	d.preparePayload(payloadBits)
	payloadStart := start + PreambleSymbols*n
	halfIdx := d.trackHalf()
	for sym := 0; sym < payloadBits; sym++ {
		spec := d.dem.Spectrum(sig[payloadStart+sym*n : payloadStart+(sym+1)*n])
		chirp.ScanPaddedCenters(spec, d.payCenter, halfIdx, d.scanPow)
		for i := range shifts {
			if d.payCenter[i] >= 0 {
				d.powers[i*payloadBits+sym] = d.scanPow[i]
			}
		}
	}

	d.finish(noise, payloadBits, 0, len(shifts))
	d.rejectGhosts(d.devices)
	return &d.res, nil
}

// symbolSpectra returns the power spectra of nSyms consecutive symbols
// of sig beginning at sample start, one Demodulator.Spectrum each,
// copied out of the demodulator's buffer.
func (d *Decoder) symbolSpectra(sig []complex128, start, nSyms int) [][]float64 {
	n := d.book.Params().N()
	out := make([][]float64, nSyms)
	for s := range out {
		out[s] = append([]float64(nil), d.dem.Spectrum(sig[start+s*n:start+(s+1)*n])...)
	}
	return out
}

// DetectedCount returns how many candidates were detected.
func (f *FrameDecode) DetectedCount() int {
	n := 0
	for _, d := range f.Devices {
		if d.Detected {
			n++
		}
	}
	return n
}
