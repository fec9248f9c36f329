package synth

import (
	"math"
	"math/cmplx"
	"testing"

	"netscatter/internal/chirp"
)

// oracleTol is the error budget every synthesized sample must meet
// against the analytic chirp.EvalShifted oracle (ISSUE acceptance:
// ≤ 1e-9; the recurrence actually lands around 1e-13).
const oracleTol = 1e-9

var testParamSets = []chirp.Params{
	{SF: 7, BW: 125e3, Oversample: 1},
	{SF: 9, BW: 500e3, Oversample: 1},
	{SF: 11, BW: 500e3, Oversample: 1},
	{SF: 7, BW: 125e3, Oversample: 2},
	{SF: 8, BW: 250e3, Oversample: 4},
}

func maxOracleErr(p chirp.Params, shift int, x0 float64, got []complex128) float64 {
	worst := 0.0
	for i, v := range got {
		if e := cmplx.Abs(v - chirp.EvalShifted(p, shift, x0+float64(i))); e > worst {
			worst = e
		}
	}
	return worst
}

func TestShiftedIntoMatchesOracle(t *testing.T) {
	for _, p := range testParamSets {
		s := For(p)
		n := p.N()
		buf := make([]complex128, n)
		for _, shift := range []int{0, 1, 2, n / 3, n / 2, n - 1} {
			for _, frac := range []float64{0, 0.25, 0.5, 0.73, 0.999} {
				x0 := 1 - frac
				s.ShiftedInto(buf, shift, x0)
				if err := maxOracleErr(p, shift, x0, buf); err > oracleTol {
					t.Errorf("%v shift=%d frac=%.3f: recurrence err %.3e > %g",
						p, shift, frac, err, oracleTol)
				}
			}
		}
	}
}

// TestShiftedIntoLongRun drives the recurrence across many wraps — a
// frame-length run over the largest supported symbol — to bound the
// accumulated drift the renormalization cadence must contain.
func TestShiftedIntoLongRun(t *testing.T) {
	p := chirp.Params{SF: 12, BW: 500e3, Oversample: 1}
	s := For(p)
	buf := make([]complex128, 8*p.N())
	s.ShiftedInto(buf, 1234, 1-0.37)
	if err := maxOracleErr(p, 1234, 1-0.37, buf); err > oracleTol {
		t.Fatalf("long-run recurrence err %.3e > %g", err, oracleTol)
	}
}

func TestShiftedIntoUnitMagnitude(t *testing.T) {
	p := chirp.Default500k9
	s := For(p)
	buf := make([]complex128, 4*p.N())
	s.ShiftedInto(buf, 77, 0.583)
	for i, v := range buf {
		if d := math.Abs(cmplx.Abs(v) - 1); d > oracleTol {
			t.Fatalf("sample %d magnitude off unit circle by %.3e", i, d)
		}
	}
}

func TestSymbolIntoMatchesModulator(t *testing.T) {
	for _, p := range testParamSets {
		s := For(p)
		mod := chirp.NewModulator(p)
		buf := make([]complex128, p.N())
		for _, shift := range []int{0, 1, 37 % p.N(), p.N() - 1, -3, p.N() + 5} {
			s.SymbolInto(buf, shift)
			want := mod.Symbol(shift)
			for i := range buf {
				if cmplx.Abs(buf[i]-want[i]) > oracleTol {
					t.Fatalf("%v shift=%d sample %d: got %v want %v", p, shift, i, buf[i], want[i])
				}
			}
		}
	}
}

// referenceFrameDelayed is the pre-synth analytic frame loop (one
// EvalShifted per sample), kept verbatim as the oracle for whole-frame
// synthesis.
func referenceFrameDelayed(p chirp.Params, shift, up, down int, bits []byte, frac float64) []complex128 {
	n := p.N()
	totalSyms := up + down + len(bits)
	out := make([]complex128, totalSyms*n+1)
	for j := range out {
		u := float64(j) - frac
		if u < 0 {
			continue
		}
		k := int(u) / n
		if k >= totalSyms {
			break
		}
		x := u - float64(k*n)
		switch {
		case k < up:
			out[j] = chirp.EvalShifted(p, shift, x)
		case k < up+down:
			v := chirp.EvalShifted(p, shift, x)
			out[j] = complex(real(v), -imag(v))
		default:
			if bits[k-up-down] != 0 {
				out[j] = chirp.EvalShifted(p, shift, x)
			}
		}
	}
	return out
}

func TestFrameDelayedIntoMatchesReference(t *testing.T) {
	bits := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	for _, p := range testParamSets[:4] {
		s := For(p)
		for _, shift := range []int{0, 5, p.N() / 2} {
			for _, frac := range []float64{0.25, 0.5, 0.901} {
				got := s.FrameDelayedInto(nil, shift, 6, 2, bits, frac)
				want := referenceFrameDelayed(p, shift, 6, 2, bits, frac)
				if len(got) != len(want) {
					t.Fatalf("%v: length %d want %d", p, len(got), len(want))
				}
				worst := 0.0
				for i := range got {
					if e := cmplx.Abs(got[i] - want[i]); e > worst {
						worst = e
					}
				}
				if worst > oracleTol {
					t.Errorf("%v shift=%d frac=%.3f: frame err %.3e > %g", p, shift, frac, worst, oracleTol)
				}
			}
		}
	}
}

func TestFrameDelayedIntoZeroFracMatchesAppend(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	s := For(p)
	bits := []byte{1, 0, 0, 1, 1}
	a := s.AppendFrame(nil, 9, 6, 2, bits)
	b := s.FrameDelayedInto(nil, 9, 6, 2, bits, 0)
	if len(a) != len(b) {
		t.Fatalf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %v vs %v — frac=0 must be bit-identical to AppendFrame", i, a[i], b[i])
		}
	}
}

func TestFrameMixedIntoMatchesSeparatePasses(t *testing.T) {
	bits := []byte{1, 1, 0, 1, 0, 0, 0, 1}
	gain := complex(0.35, -1.2)
	for _, p := range testParamSets[:4] {
		s := For(p)
		fs := p.SampleRate()
		for _, frac := range []float64{0, 0.37, 0.62} {
			for _, dfHz := range []float64{0, 113.7, -540.2} {
				got := s.FrameMixedInto(nil, 21%p.N(), 6, 2, bits, frac, 2*math.Pi*dfHz/fs, gain)
				want := s.FrameDelayedInto(nil, 21%p.N(), 6, 2, bits, frac)
				chirp.ApplyFreqOffset(want, dfHz, fs)
				for i := range want {
					want[i] *= gain
				}
				if len(got) != len(want) {
					t.Fatalf("%v: length %d want %d", p, len(got), len(want))
				}
				worst := 0.0
				for i := range got {
					if e := cmplx.Abs(got[i] - want[i]); e > worst {
						worst = e
					}
				}
				// ApplyFreqOffset's own incremental rotation drifts at the
				// same order as the recurrence; compare a touch looser,
				// scaled by the gain magnitude.
				if worst > 10*oracleTol*cmplx.Abs(gain) {
					t.Errorf("%v frac=%.2f df=%.1f: mixed err %.3e", p, frac, dfHz, worst)
				}
			}
		}
	}
}

func TestFrameAllSilence(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	s := For(p)
	zeros := []byte{0, 0, 0}
	for _, buf := range [][]complex128{
		s.AppendFrame(nil, 4, 0, 0, zeros),
		s.FrameDelayedInto(nil, 4, 0, 0, zeros, 0.5),
		s.FrameMixedInto(nil, 4, 0, 0, zeros, 0.5, 0.01, complex(2, 1)),
	} {
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("all-silence frame has energy at sample %d: %v", i, v)
			}
		}
	}
}

func TestForCachesPerParams(t *testing.T) {
	a := For(chirp.Default500k9)
	b := For(chirp.Default500k9)
	if a != b {
		t.Fatal("For returned distinct synthesizers for identical params")
	}
	c := For(chirp.Params{SF: 9, BW: 500e3}) // Oversample 0 normalizes to 1
	if c != a {
		t.Fatal("For did not normalize Oversample 0 to the cached instance")
	}
}

// TestSynthHotPathsZeroAlloc pins the allocation-free property of the
// synthesis hot paths, mirroring the decoder's PR 1 gate: with a
// preallocated destination, symbol and frame synthesis must not touch
// the heap.
func TestSynthHotPathsZeroAlloc(t *testing.T) {
	p := chirp.Default500k9
	s := For(p)
	bits := []byte{1, 0, 1, 1, 0, 1, 0, 0}
	sym := make([]complex128, p.N())
	frame := make([]complex128, 0, (8+len(bits))*p.N()+1)

	if allocs := testing.AllocsPerRun(20, func() {
		s.SymbolInto(sym, 42)
		s.ShiftedInto(sym, 42, 0.75)
	}); allocs != 0 {
		t.Errorf("symbol synthesis allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		frame = s.FrameDelayedInto(frame, 42, 6, 2, bits, 0.37)
	}); allocs != 0 {
		t.Errorf("FrameDelayedInto allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		frame = s.FrameMixedInto(frame, 42, 6, 2, bits, 0.37, 0.003, complex(1.7, 0.2))
	}); allocs != 0 {
		t.Errorf("FrameMixedInto allocates %.1f objects/op, want 0", allocs)
	}
}
