package synth

// Fuzz targets for the synthesizer invariants the decoder's physics
// relies on. `go test -run Fuzz` exercises the committed seed corpus as
// part of tier-1; `go test -fuzz FuzzShiftedRecurrence ./internal/synth`
// explores further.

import (
	"math"
	"math/cmplx"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// fuzzParams maps raw fuzz bytes onto a valid parameter set: SF in
// [5, 12], Oversample in {1, 2}.
func fuzzParams(sf, ovs uint8) chirp.Params {
	return chirp.Params{SF: 5 + int(sf)%8, BW: 125e3, Oversample: 1 + int(ovs)%2}
}

// FuzzShiftedRecurrence checks phase continuity of the recurrence
// synthesizer against the analytic oracle for arbitrary shift and
// fractional offset: every sample unit magnitude, every sample within
// oracleTol of chirp.EvalShifted.
func FuzzShiftedRecurrence(f *testing.F) {
	f.Add(uint8(4), uint8(0), int16(37), uint16(250))
	f.Add(uint8(2), uint8(0), int16(0), uint16(0))
	f.Add(uint8(2), uint8(1), int16(100), uint16(360))
	f.Add(uint8(7), uint8(0), int16(-1234), uint16(999))
	f.Add(uint8(0), uint8(0), int16(31), uint16(500))
	f.Fuzz(func(t *testing.T, sf, ovs uint8, shift int16, fracMil uint16) {
		p := fuzzParams(sf, ovs)
		frac := float64(fracMil%1000) / 1000
		s := For(p)
		buf := make([]complex128, p.N())
		x0 := -frac
		s.ShiftedInto(buf, int(shift), x0)
		for i, v := range buf {
			if d := math.Abs(cmplx.Abs(v) - 1); d > oracleTol {
				t.Fatalf("%v shift=%d frac=%.3f sample %d: magnitude off unit by %.3e",
					p, shift, frac, i, d)
			}
		}
		if err := maxOracleErr(p, int(shift), x0, buf); err > oracleTol {
			t.Fatalf("%v shift=%d frac=%.3f: recurrence err %.3e > %g",
				p, shift, frac, err, oracleTol)
		}
	})
}

// FuzzSymbolCyclicShift checks the cyclic-shift identity at critical
// sampling: the banked integer-shift symbol must be exactly the cyclic
// rotation of the baseline upchirp (this is what moves the dechirped
// peak bin, §2.1), and in aggregate mode it must match the analytic
// frequency-offset symbol within tolerance.
func FuzzSymbolCyclicShift(f *testing.F) {
	f.Add(uint8(4), uint8(0), int16(37))
	f.Add(uint8(2), uint8(1), int16(-3))
	f.Add(uint8(6), uint8(0), int16(4095))
	f.Fuzz(func(t *testing.T, sf, ovs uint8, shift int16) {
		p := fuzzParams(sf, ovs)
		s := For(p)
		n := p.N()
		buf := make([]complex128, n)
		s.SymbolInto(buf, int(shift))
		if p.Oversample == 1 {
			want := chirp.CyclicShift(s.bank, int(shift))
			for i := range buf {
				if buf[i] != want[i] {
					t.Fatalf("%v shift=%d sample %d: bank rotation %v != CyclicShift %v",
						p, shift, i, buf[i], want[i])
				}
			}
			return
		}
		for i := range buf {
			if e := cmplx.Abs(buf[i] - chirp.EvalShifted(p, int(shift), float64(i))); e > oracleTol {
				t.Fatalf("%v shift=%d sample %d: aggregate symbol err %.3e", p, shift, i, e)
			}
		}
	})
}

// chainTol bounds the divergence between the interleaved sub-chain
// recurrence and the plain serial recurrence over one segment: both
// stay renormalized onto the unit circle, so the accumulated rounding
// difference is orders of magnitude below the analytic oracle budget.
const chainTol = 1e-9

// FuzzChainStrideContinuity drives runSeg's interleaved sub-chain path
// with arbitrary quadratic-phase seeds and segment lengths and checks
// it against the plain serial recurrence: every emitted sample within
// chainTol of the serial sample, every sample unit magnitude, and the
// continued (z, dz) state — what stitches the next wrap-free segment on
// — equally close. Segment lengths sweep the stride remainder
// m mod L through every residue and cross the renormalization cadence,
// so phase continuity is exercised at chain-stride boundaries, at the
// serial tail hand-off and across renorm blocks.
func FuzzChainStrideContinuity(f *testing.F) {
	f.Add(uint16(0), uint16(100), uint16(200), uint16(300))
	f.Add(uint16(1), uint16(0), uint16(999), uint16(0))
	f.Add(uint16(7), uint16(500), uint16(0), uint16(999))
	f.Add(uint16(1000), uint16(250), uint16(750), uint16(500))
	f.Add(uint16(4093), uint16(999), uint16(1), uint16(42))
	f.Fuzz(func(t *testing.T, mRaw, phiMil, deltaMil, aMil uint16) {
		m := chainMinSeg + int(mRaw)%4096
		phi0 := 2 * math.Pi * float64(phiMil%1000) / 1000
		delta := 2*math.Pi*float64(deltaMil%1000)/1000 - math.Pi
		curv := math.Pi * (float64(aMil%1000)/1000 - 0.5) / 256
		z0 := cis(phi0)
		dz0 := cis(delta)
		ddz := cis(2 * curv)

		var s Synthesizer
		dst := make([]complex128, m)
		zN, dzN := s.runSeg(dst, z0, dz0, ddz, 1)

		z, d := z0, dz0
		for i := 0; i < m; i++ {
			ref := complex(real(z), imag(z))
			if e := cmplx.Abs(dst[i] - ref); e > chainTol {
				t.Fatalf("m=%d δ=%.4f a=%.2e sample %d (stride phase %d): chain vs serial err %.3e",
					m, delta, curv, i, i%dsp.SynthChainCount, e)
			}
			if e := math.Abs(cmplx.Abs(dst[i]) - 1); e > chainTol {
				t.Fatalf("m=%d sample %d: magnitude off unit by %.3e", m, i, e)
			}
			z = mulFMA(z, d)
			d = mulFMA(d, ddz)
			if i%renormEvery == renormEvery-1 {
				z = renorm(z)
				d = renorm(d)
			}
		}
		if e := cmplx.Abs(zN - z); e > chainTol {
			t.Fatalf("m=%d: continued z diverges from serial by %.3e", m, e)
		}
		if e := cmplx.Abs(dzN - d); e > chainTol {
			t.Fatalf("m=%d: continued dz diverges from serial by %.3e", m, e)
		}
	})
}
