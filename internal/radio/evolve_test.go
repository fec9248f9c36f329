package radio

import (
	"math"
	"testing"

	"netscatter/internal/dsp"
)

// TestBesselJ0Known checks the approximation against handbook values:
// J0(0) = 1, the first root at 2.4048255577, and a mid-range value in
// each polynomial regime.
func TestBesselJ0Known(t *testing.T) {
	cases := []struct{ x, want, tol float64 }{
		{0, 1, 1e-12},
		{1, 0.7651976866, 1e-6},
		{2.4048255577, 0, 1e-6},
		{5, -0.1775967713, 1e-6},
		{10, -0.2459357645, 1e-6},
	}
	for _, c := range cases {
		if got := BesselJ0(c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("J0(%v) = %v, want %v ± %v", c.x, got, c.want, c.tol)
		}
	}
	if BesselJ0(-1) != BesselJ0(1) {
		t.Errorf("J0 must be even")
	}
}

// TestJakesCorrelation pins the clamped AR(1) mapping: a static channel
// at fD = 0, a decaying positive correlation for slow fading, and 0 once
// J0 crosses its first root (successive rounds decorrelated).
func TestJakesCorrelation(t *testing.T) {
	if rho := JakesCorrelation(0, 1); rho != 1 {
		t.Fatalf("fD=0 gives rho %v, want 1", rho)
	}
	slow := JakesCorrelation(0.05, 1) // fD·T = 0.05
	if slow <= 0.8 || slow >= 1 {
		t.Fatalf("slow-fading rho %v outside (0.8, 1)", slow)
	}
	fast := JakesCorrelation(10, 1) // way past the first J0 root
	if fast < 0 || fast > 0.3 {
		t.Fatalf("fast-fading rho %v, want small and non-negative", fast)
	}
	if rho := JakesCorrelation(0.383, 1); rho != 0 {
		// 2π·0.383 ≈ 2.406, just past the first root: clamped to 0.
		t.Fatalf("past-root rho %v, want clamp to 0", rho)
	}
}

// TestCorrelatedFaderRhoZeroIIDOracle: with Rho = 0 every Step must
// reproduce, bit-exactly, the i.i.d. Ricean sequence drawn directly
// from the same stream — the correlation-0 degeneracy the trajectory
// layer's oracle rests on.
func TestCorrelatedFaderRhoZeroIIDOracle(t *testing.T) {
	const kDB = 8.0
	f := NewCorrelatedFader(kDB, 0, dsp.StreamAt(42, 7))

	ref := dsp.StreamAt(42, 7)
	k := DBToLinear(kDB)
	static := complex(math.Sqrt(k/(k+1)), 0) * ref.UniformPhase()
	ref.NormComplex(1 / (k + 1)) // the init-time scatter draw
	for step := 0; step < 64; step++ {
		want := static + ref.NormComplex(1/(k+1))
		if got := f.Step(); got != want {
			t.Fatalf("step %d: rho=0 fader %v, i.i.d. draw %v", step, got, want)
		}
	}
}

// TestCorrelatedFaderStationary: the Gauss-Markov recurrence preserves
// the unit mean channel power for rho inside (0, 1).
func TestCorrelatedFaderStationary(t *testing.T) {
	f := NewCorrelatedFader(6, 0.95, dsp.StreamAt(9, 3))
	var acc float64
	const steps = 50000
	for i := 0; i < steps; i++ {
		h := f.Step()
		acc += real(h)*real(h) + imag(h)*imag(h)
	}
	if mean := acc / steps; math.Abs(mean-1) > 0.08 {
		t.Fatalf("mean channel power %v, want 1 ± 0.08", mean)
	}
}

// TestCorrelatedFaderReproducible: the fade history is a pure function
// of (seed, stream index); distinct indices decorrelate.
func TestCorrelatedFaderReproducible(t *testing.T) {
	a := NewCorrelatedFader(10, 0.9, dsp.StreamAt(5, 1))
	b := NewCorrelatedFader(10, 0.9, dsp.StreamAt(5, 1))
	c := NewCorrelatedFader(10, 0.9, dsp.StreamAt(5, 2))
	same, diff := true, false
	for i := 0; i < 32; i++ {
		ga, gb, gc := a.Step(), b.Step(), c.Step()
		same = same && ga == gb
		diff = diff || ga != gc
	}
	if !same {
		t.Fatalf("same (seed, index) diverged")
	}
	if !diff {
		t.Fatalf("distinct stream indices produced identical fades")
	}
}

// TestCorrelatedFaderSetDeepFade: the fault-injection hook lands the
// instantaneous gain at the requested depth, and the process recovers
// toward the mean afterwards.
func TestCorrelatedFaderSetDeepFade(t *testing.T) {
	f := NewCorrelatedFader(10, 0.5, dsp.StreamAt(1, 0))
	f.SetDeepFade(30)
	if g := gainDB(f); math.Abs(g-(-30)) > 1e-9 {
		t.Fatalf("after SetDeepFade(30): gain %v dB, want -30", g)
	}
	var acc float64
	for i := 0; i < 2000; i++ {
		f.Step()
		acc += DBToLinear(gainDB(f))
	}
	if mean := acc / 2000; mean < 0.5 {
		t.Fatalf("mean power %v after deep fade: process did not recover", mean)
	}
}

// TestCFOWalk: the drift stays inside the reflection bound, accumulates
// (non-degenerate), and is reproducible from its stream.
func TestCFOWalk(t *testing.T) {
	a := NewCFOWalk(3, 40, dsp.StreamAt(11, 4))
	b := NewCFOWalk(3, 40, dsp.StreamAt(11, 4))
	moved := false
	for i := 0; i < 5000; i++ {
		oa := a.Step()
		if math.Abs(oa) > 40 {
			t.Fatalf("step %d: offset %v beyond bound 40", i, oa)
		}
		if oa != b.Step() {
			t.Fatalf("step %d: same-stream walks diverged", i)
		}
		if math.Abs(oa) > 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("walk never left ±1 Hz — drift not accumulating")
	}
	if a.offset != b.offset {
		t.Fatalf("offset mismatch")
	}
}

// gainDB is f's instantaneous power gain in dB relative to the mean
// channel.
func gainDB(f *CorrelatedFader) float64 {
	h := f.Gain()
	return LinearToDB(real(h)*real(h) + imag(h)*imag(h))
}
