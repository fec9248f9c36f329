// Package simtest holds the seed-pinned constructors the repository's
// test suites share: office deployments, small chirp parameter sets and
// template-path transmission fleets. Before it existed every test file
// rebuilt the same deploy.Generate / encoder-closure boilerplate by
// hand; centralizing it keeps the seeds (and therefore the pinned
// statistics across sim, air and deploy tests) in one place.
//
// The package deliberately does not import internal/sim: sim's
// in-package tests import simtest, and a simtest→sim edge would be an
// import cycle.
package simtest

import (
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/synth"
)

// BandwidthHz is the receive bandwidth every test deployment's link
// budgets are computed over — the paper's 500 kHz.
const BandwidthHz = 500e3

// Deployment generates the standard test office: n devices over the
// DefaultOffice floor with the DefaultLinkBudget, placed by the given
// seed. Equal (n, seed) pairs reproduce the same geometry everywhere.
func Deployment(tb testing.TB, n int, seed int64) *deploy.Deployment {
	tb.Helper()
	rng := dsp.NewRand(seed)
	return deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, n, BandwidthHz, rng)
}

// MultiAPDeployment is Deployment with a k-AP placement applied.
func MultiAPDeployment(tb testing.TB, n, aps int, seed int64) *deploy.Deployment {
	tb.Helper()
	dep := Deployment(tb, n, seed)
	dep.PlaceAPs(aps)
	return dep
}

// SmallParams returns the light chirp configuration (SF 7, 125 kHz)
// the suites use where decode physics matter but paper-scale frames
// would only cost time.
func SmallParams() chirp.Params {
	return chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
}

// Bits returns nDev random bit sections of nBits each, pinned to seed.
func Bits(nDev, nBits int, seed int64) [][]byte {
	rng := dsp.NewRand(seed)
	bits := make([][]byte, nDev)
	for i := range bits {
		bits[i] = rng.Bits(nBits)
	}
	return bits
}

// txLink deterministically varies the per-device link scalars the
// transmission fleets below share, so fleets built by different suites
// exercise the same spread of SNRs, delays and offsets.
func txLink(p chirp.Params, i int) (snrDB, delaySec, freqHz float64) {
	return float64(3 + i%9),
		float64(i%5)/p.SampleRate() + 0.31/p.SampleRate(),
		float64(i*13%90) - 40
}

// TiledTxs builds a fleet of template-path (MixedTmpl + MixedAddRange)
// transmissions over the given bit sections; with mixed, the
// equivalent legacy Mixed-path fleet instead.
func TiledTxs(p chirp.Params, nDev int, bits [][]byte, mixed bool) []air.Transmission {
	txs := make([]air.Transmission, nDev)
	for i := 0; i < nDev; i++ {
		enc := core.NewEncoder(p, (i*7+3)%p.N())
		b := bits[i]
		tx := &txs[i]
		tx.SNRdB, tx.DelaySec, tx.FreqOffsetHz = txLink(p, i)
		if mixed {
			tx.Mixed = func(dst []complex128, frac, freqHz float64, gain complex128) []complex128 {
				return enc.FrameBitsWaveformMixedInto(dst, b, frac, freqHz, gain)
			}
		} else {
			tx.MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
				return enc.FrameBitsWaveformMixedTemplates(tmpl, b, frac, freqHz, gain)
			}
			tx.MixedAddRange = func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
				enc.FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, b, frac, freqHz)
			}
		}
	}
	return txs
}

// MultiTxs builds a fleet of multi-AP transmissions over the given bit
// sections, with per-AP SNRs spread deterministically per (device, AP).
// The closures are the same encoder closures TiledTxs installs, so a
// multi fleet and a tiled fleet over the same bits describe the same
// devices.
func MultiTxs(p chirp.Params, nDev, nAPs int, bits [][]byte) []air.MultiTransmission {
	txs := make([]air.MultiTransmission, nDev)
	for i := 0; i < nDev; i++ {
		enc := core.NewEncoder(p, (i*7+3)%p.N())
		b := bits[i]
		tx := &txs[i]
		snr, delay, freq := txLink(p, i)
		tx.DelaySec, tx.FreqOffsetHz = delay, freq
		tx.SNRdB = make([]float64, nAPs)
		for a := range tx.SNRdB {
			tx.SNRdB[a] = snr + float64((i+3*a)%7) - 3
		}
		tx.MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			return enc.FrameBitsWaveformMixedTemplates(tmpl, b, frac, freqHz, gain)
		}
		tx.MixedAddRange = func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			enc.FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, b, frac, freqHz)
		}
	}
	return txs
}

// Schedule installs frame-schedule hooks on a MultiTxs fleet over the
// same bit sections — the same encoders, now also filling each device's
// synth.FrameSchedule — so the channel accumulates the fleet on its
// fused path instead of through the MixedAddRange closures. The two
// routes must produce the same bits.
func Schedule(p chirp.Params, txs []air.MultiTransmission, bits [][]byte) {
	for i := range txs {
		enc := core.NewEncoder(p, (i*7+3)%p.N())
		b := bits[i]
		txs[i].MixedSchedule = func(sc *synth.FrameSchedule, at int, frac, freqHz float64) {
			enc.FrameBitsSchedule(sc, b, at, frac, freqHz)
		}
	}
}
