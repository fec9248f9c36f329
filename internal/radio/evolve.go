package radio

// Time-varying channel evolution for multi-round trajectories. Unlike
// FadingProcess (driven by a *dsp.Rand forked from the network's
// master generator), the types here evolve from value-type dsp.Streams
// derived by dsp.StreamAt(seed, key) — a pure function of the trajectory
// seed and the device index — so a multi-round trajectory's channel
// history is bit-reproducible from one seed, independent of everything
// the round path itself draws. See DESIGN-trajectory.md.

import (
	"math"

	"netscatter/internal/dsp"
)

// BesselJ0 evaluates the Bessel function of the first kind of order
// zero — the Jakes/Clarke temporal autocorrelation of an isotropic
// scattering channel. Polynomial approximations from Abramowitz &
// Stegun 9.4.1 (|x| ≤ 3) and 9.4.3 (|x| > 3); absolute error under
// 5e-8 and 2e-7 per the handbook bounds, far inside what an AR(1)
// correlation coefficient can resolve.
func BesselJ0(x float64) float64 {
	x = math.Abs(x)
	if x <= 3 {
		t := x * x / 9
		return 1 + t*(-2.2499997+t*(1.2656208+t*(-0.3163866+
			t*(0.0444479+t*(-0.0039444+t*0.0002100)))))
	}
	t := 3 / x
	f0 := 0.79788456 + t*(-0.00000077+t*(-0.00552740+t*(-0.00009512+
		t*(0.00137237+t*(-0.00072805+t*0.00014476)))))
	theta0 := x - 0.78539816 + t*(-0.04166397+t*(-0.00003954+
		t*(0.00262573+t*(-0.00054125+t*(-0.00029333+t*0.00013558)))))
	return f0 * math.Cos(theta0) / math.Sqrt(x)
}

// JakesCorrelation returns the AR(1) step correlation matching the
// Jakes model at lag stepSec for a maximum Doppler shift dopplerHz:
// rho = J0(2π·fD·T). J0 oscillates below zero past its first root
// (fD·T ≈ 0.38); a negative or tiny correlation means successive
// rounds are effectively independent, so the result is clamped to
// [0, 1) — rho = 0 is the degenerate i.i.d. regime.
func JakesCorrelation(dopplerHz, stepSec float64) float64 {
	rho := BesselJ0(2 * math.Pi * dopplerHz * stepSec)
	if rho < 0 {
		return 0
	}
	if rho >= 1 {
		// fD·T = 0: a static channel between rounds.
		return 1
	}
	return rho
}

// CorrelatedFader is the trajectory-grade Ricean fader: the same
// static-plus-AR(1)-scatter model as FadingProcess, but evolved from a
// value-type dsp.Stream so the fade history of device i is a pure
// function of (seed, i). With Rho = 0 every Step draws an independent
// Ricean sample — exactly the i.i.d. sequence a fresh draw per round
// would produce from the same stream (test-enforced oracle).
type CorrelatedFader struct {
	// KFactorDB is the Ricean K-factor (static-to-scattered power ratio).
	KFactorDB float64
	// Rho is the per-step AR(1) correlation (JakesCorrelation for a
	// physical Doppler/round-period pair).
	Rho float64

	st      dsp.Stream
	static  complex128
	scatter complex128
}

// NewCorrelatedFader initializes the fader's state from the stream:
// a uniformly random static phase, then one stationary scatter draw.
// Total mean power is normalized to 1 (static k/(k+1), scatter
// 1/(k+1)).
func NewCorrelatedFader(kFactorDB, rho float64, st dsp.Stream) *CorrelatedFader {
	f := &CorrelatedFader{KFactorDB: kFactorDB, Rho: rho, st: st}
	k := DBToLinear(kFactorDB)
	f.static = complex(math.Sqrt(k/(k+1)), 0) * f.st.UniformPhase()
	f.scatter = f.st.NormComplex(1 / (k + 1))
	return f
}

// Step advances the fade one round and returns the new complex channel
// gain: scatter ← rho·scatter + √(1-rho²)·CN(0, 1/(k+1)) — the
// variance-preserving Gauss-Markov recurrence, stationary for any
// rho ∈ [0, 1).
func (f *CorrelatedFader) Step() complex128 {
	rho := f.Rho
	innov := f.st.NormComplex((1 - rho*rho) / (DBToLinear(f.KFactorDB) + 1))
	f.scatter = complex(rho, 0)*f.scatter + innov
	return f.static + f.scatter
}

// Gain returns the current complex channel gain without advancing.
func (f *CorrelatedFader) Gain() complex128 { return f.static + f.scatter }

// SetDeepFade forces the fader into a fade depthDB below the mean
// channel by collapsing the scatter component against the static one —
// the trajectory tests' fault-injection hook. Subsequent Steps recover
// toward the stationary distribution at the fader's own rho.
func (f *CorrelatedFader) SetDeepFade(depthDB float64) {
	target := math.Sqrt(DBToLinear(-depthDB))
	h := f.static + f.scatter
	mag := math.Sqrt(real(h)*real(h) + imag(h)*imag(h))
	dir := complex(1, 0)
	if mag > 0 {
		dir = h * complex(1/mag, 0)
	}
	f.scatter = dir*complex(target, 0) - f.static
}

// CFOWalk is a per-device carrier-frequency-offset random walk layered
// on top of the oscillator's static ppm error and per-packet jitter: a
// slow thermal drift accumulating StepHz-sized Gaussian increments per
// round, reflected at ±BoundHz so a long trajectory cannot wander
// beyond what the crystal could physically produce.
type CFOWalk struct {
	// StepHz is the standard deviation of the per-round drift increment.
	StepHz float64
	// BoundHz reflects the accumulated offset into [-BoundHz, +BoundHz]
	// (0 disables the reflection).
	BoundHz float64

	st     dsp.Stream
	offset float64
}

// NewCFOWalk returns a walk starting at zero accumulated drift.
func NewCFOWalk(stepHz, boundHz float64, st dsp.Stream) *CFOWalk {
	return &CFOWalk{StepHz: stepHz, BoundHz: boundHz, st: st}
}

// Step advances the walk one round and returns the accumulated offset
// in Hz.
func (w *CFOWalk) Step() float64 {
	w.offset += w.StepHz * w.st.NormFloat64()
	if b := w.BoundHz; b > 0 {
		for w.offset > b || w.offset < -b {
			if w.offset > b {
				w.offset = 2*b - w.offset
			} else {
				w.offset = -2*b - w.offset
			}
		}
	}
	return w.offset
}
