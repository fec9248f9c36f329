package hw

import (
	"math"
	"testing"
	"testing/quick"

	"netscatter/internal/dsp"
)

func TestReflectionEndpoints(t *testing.T) {
	if got := ReflectionCoeff(0); got != -1 {
		t.Errorf("short Γ = %v", got)
	}
	if got := ReflectionCoeff(math.Inf(1)); got != 1 {
		t.Errorf("open Γ = %v", got)
	}
	if got := ReflectionCoeff(AntennaImpedanceOhms); got != 0 {
		t.Errorf("matched Γ = %v", got)
	}
}

func TestPowerGainMaximum(t *testing.T) {
	// Short <-> open gives the full |Γ0-Γ1|²/4 = 1 (0 dB).
	if got := PowerGain(0, math.Inf(1)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("max gain = %v", got)
	}
	// Matched load kills the reflection entirely.
	if got := PowerGainDB(50, math.Inf(1)); math.Abs(got-(-6.02)) > 0.01 {
		t.Fatalf("50Ω gain = %v dB, want -6", got)
	}
}

func TestGainSweepShape(t *testing.T) {
	// Fig. 7a: 0 dB at Z0=0, monotonically decreasing toward ~-26 dB
	// at 1000Ω.
	z := make([]float64, 101)
	g := make([]float64, len(z))
	for i := range z {
		z[i] = 10 * float64(i)
		g[i] = PowerGainDB(z[i], math.Inf(1))
	}
	if z[0] != 0 || g[0] != 0 {
		t.Fatalf("sweep start: z=%v g=%v", z[0], g[0])
	}
	for i := 1; i < len(g); i++ {
		if g[i] >= g[i-1] {
			t.Fatalf("gain not decreasing at %v Ω", z[i])
		}
	}
	if last := g[len(g)-1]; math.Abs(last-(-26.4)) > 0.5 {
		t.Fatalf("gain at 1000Ω = %v, want ~-26.4", last)
	}
}

func TestImpedanceForGainRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		gain := -math.Mod(math.Abs(raw), 25) - 0.5 // (-25.5, -0.5]
		z, err := ImpedanceForGainDB(gain)
		if err != nil {
			return false
		}
		return math.Abs(PowerGainDB(z, math.Inf(1))-gain) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ImpedanceForGainDB(3); err == nil {
		t.Fatal("positive gain accepted")
	}
}

func TestPowerLevels(t *testing.T) {
	levels := PowerLevels()
	want := []float64{0, -4, -10}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i, l := range levels {
		if l.GainDB != want[i] {
			t.Errorf("level %d gain = %v, want %v", i, l.GainDB, want[i])
		}
		if got := PowerGainDB(l.Z0Ohms, math.Inf(1)); math.Abs(got-l.GainDB) > 1e-9 {
			t.Errorf("level %d impedance %vΩ realizes %v dB", i, l.Z0Ohms, got)
		}
	}
}

func TestDelayModelBounds(t *testing.T) {
	rng := dsp.NewRand(1)
	m := DefaultDelayModel
	var max float64
	for i := 0; i < 100000; i++ {
		d := m.Draw(rng)
		if d < 0 {
			t.Fatalf("negative delay %v", d)
		}
		if d > m.MaxSec {
			t.Fatalf("delay %v exceeds cap %v", d, m.MaxSec)
		}
		if d > max {
			max = d
		}
	}
	// The tail should actually reach past 2 µs (the >1 FFT bin regime
	// at 500 kHz the SKIP spacing exists for).
	if max < 2e-6 {
		t.Fatalf("max delay only %v", max)
	}
}

func TestDelayModelCalibration(t *testing.T) {
	// Fig. 14b at 500 kHz: most packets land within one bin, with a
	// small but real tail beyond it.
	rng := dsp.NewRand(2)
	m := DefaultDelayModel
	n := 200000
	over1bin := 0
	for i := 0; i < n; i++ {
		if m.Draw(rng)*500e3 > 1 {
			over1bin++
		}
	}
	frac := float64(over1bin) / float64(n)
	if frac < 0.001 || frac > 0.1 {
		t.Fatalf("P(>1 bin at 500kHz) = %v, want ~0.2-5%%", frac)
	}
}

func TestPropagationDelay(t *testing.T) {
	// §3.2.1: 100 m -> 666 ns round trip (0.33 bins at 500 kHz).
	got := PropagationDelaySec(100)
	if math.Abs(got-666e-9) > 2e-9 {
		t.Fatalf("propagation delay = %v", got)
	}
}
