package chirp

import (
	"testing"
)

func TestScanPeaksMatchesPeakNear(t *testing.T) {
	p := Params{SF: 7, BW: 125e3, Oversample: 1}
	dem := NewDemodulator(p, 8)
	mod := NewModulator(p)
	spec := append([]float64(nil), dem.Spectrum(mod.Symbol(42))...)

	shifts := []int{0, 1, 42, 63, 127} // includes windows wrapping both edges
	pow := make([]float64, len(shifts))
	at := make([]float64, len(shifts))
	dem.ScanPeaks(spec, shifts, 1.5, pow, at)
	for i, s := range shifts {
		wantPw, wantAt := PeakNear(dem, spec, s, 1.5)
		if pow[i] != wantPw || at[i] != wantAt {
			t.Fatalf("shift %d: ScanPeaks (%v, %v) != PeakNear (%v, %v)",
				s, pow[i], at[i], wantPw, wantAt)
		}
	}
}

func TestScanPaddedCenters(t *testing.T) {
	spec := []float64{1, 9, 2, 3, 8, 1, 0, 5}
	out := []float64{-1, -1, -1}
	ScanPaddedCenters(spec, []int{1, -1, 7}, 1, out)
	if out[0] != 9 {
		t.Fatalf("center 1 max = %v, want 9", out[0])
	}
	if out[1] != -1 {
		t.Fatalf("skipped center overwritten: %v", out[1])
	}
	if out[2] != 5 { // wraps: window {6,7,0} = {0,5,1}
		t.Fatalf("wrapping center max = %v, want 5", out[2])
	}
}
