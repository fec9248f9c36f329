package radio

import (
	"math"

	"netscatter/internal/dsp"
)

// FadingProcess models the slow channel variation a static backscatter
// device experiences while people move through an office (Fig. 9 of the
// paper). It is a first-order Gauss-Markov (AR(1)) process over a
// Ricean channel gain: a strong static component (the device is not
// moving) plus a scattered component whose phase and amplitude wander
// with temporal correlation rho per step.
type FadingProcess struct {
	// KFactorDB is the Ricean K-factor: power ratio of the static to
	// scattered component. Larger K means smaller SNR variance.
	KFactorDB float64
	// Rho is the AR(1) correlation coefficient per sample step.
	Rho float64

	rng     *dsp.Rand
	scatter complex128
	static  complex128
}

// NewFadingProcess creates a fading process with its own deterministic
// stream. Typical office values: K = 9..12 dB, rho = 0.98 with one step
// per second.
func NewFadingProcess(kFactorDB, rho float64, rng *dsp.Rand) *FadingProcess {
	f := &FadingProcess{
		KFactorDB: kFactorDB,
		Rho:       rho,
		rng:       rng,
	}
	k := DBToLinear(kFactorDB)
	// Normalize total mean power to 1: static k/(k+1), scatter 1/(k+1).
	f.static = complex(math.Sqrt(k/(k+1)), 0) * rng.UniformPhase()
	f.scatter = rng.ComplexNormal(1 / (k + 1))
	return f
}

// Step advances the process one time step and returns the current
// complex channel gain.
func (f *FadingProcess) Step() complex128 {
	rho := f.Rho
	innov := f.rng.ComplexNormal((1 - rho*rho) / (DBToLinear(f.KFactorDB) + 1))
	f.scatter = complex(rho, 0)*f.scatter + innov
	return f.static + f.scatter
}

// GainDB returns the instantaneous power gain of the current state in dB
// relative to the mean channel.
func (f *FadingProcess) GainDB() float64 {
	h := f.static + f.scatter
	p := real(h)*real(h) + imag(h)*imag(h)
	return LinearToDB(p)
}

// SNRTrace simulates steps of the process and returns the per-step SNR
// in dB around a nominal meanSNRdB. Used to regenerate Fig. 9.
func SNRTrace(meanSNRdB float64, steps int, kFactorDB, rho float64, rng *dsp.Rand) []float64 {
	f := NewFadingProcess(kFactorDB, rho, rng)
	out := make([]float64, steps)
	for i := range out {
		f.Step()
		out[i] = meanSNRdB + f.GainDB()
	}
	return out
}
