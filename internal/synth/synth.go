// Package synth is the transmit-side waveform engine: it synthesizes
// cyclic-shifted chirp symbols and whole NetScatter frames by iterating
// the quadratic-phase second-order recurrence instead of calling sin/cos
// per sample, which PR 1's profiling showed dominating NetworkRound64
// (~96% of a round was chirp.EvalShifted).
//
// The chirp phase in sample units is quadratic, φ(u) = A·u² + B·u, so
// the unit-magnitude sample z(u) = e^{jφ(u)} satisfies
//
//	z(u+1) = z(u)·d(u),   d(u+1) = d(u)·D,   D = e^{j2A}
//
// — two complex multiplies per sample, no trigonometry. Rounding drift
// is bounded by renormalizing z and d every renormEvery samples with one
// Newton step of 1/√m² (the magnitudes stay within ~1e-13 of 1, so a
// single step is exact to O(1e-26)); the phase error is a random walk of
// rounding noise, ~√n·ε ≈ 1e-13 over the largest supported symbol —
// three orders of magnitude inside the 1e-9 budget the golden-vector
// tests enforce against the analytic chirp.EvalShifted oracle.
//
// At critical sampling the cyclic-shift wrap u → u−N is not a free
// phase continuation for fractional u (the symbol is genuinely
// discontinuous there — the physics the decoder's timing tolerance
// depends on). The wrap is still recurrence-friendly: φ(u) − φ(u−N) =
// 2πu − 2πN, so crossing it multiplies z by the constant e^{-j2π·frac(u)}
// and leaves d unchanged (2AN = 2π). One extra complex multiply per
// symbol, exact fractional-delay physics.
//
// A Synthesizer is immutable after construction and cached per Params
// (synth.For), so any number of goroutines — the channel simulator fans
// frame synthesis across the worker pool — share one instance and one
// baseline symbol bank.
package synth

import (
	"fmt"
	"math"
	"sync"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// renormEvery is the renormalization cadence of the recurrence loops:
// every renormEvery samples the running factors are pulled back onto the
// unit circle. 128 keeps the amortized cost under 1% of the loop while
// holding magnitude drift below 1e-13 (see DESIGN-synth.md for the error
// budget).
const renormEvery = 128

// Synthesizer generates shifted chirp symbols and frames for one
// parameter set. Safe for concurrent use; obtain one via For.
type Synthesizer struct {
	p chirp.Params
	n int

	// bank is the baseline (shift 0) upchirp sampled once analytically —
	// the per-Params symbol bank. At critical sampling every integer
	// shift is a cyclic rotation of it (two copies, zero arithmetic); in
	// aggregate-bandwidth mode shifts become frequency-offset mixes of
	// it (one complex multiply per sample).
	bank []complex128

	// a, b are the quadratic phase coefficients in sample units:
	// φ(u) = a·u² + b·u for the baseline chirp (shift folds into u at
	// critical sampling and into b in aggregate mode).
	a, b float64

	// ddzUp, ddzDown cache the recurrence's second difference
	// e^{j2a}/e^{-j2a} — constant per parameter set, so MixedInto
	// spends its trigonometry on the per-call seeds only.
	ddzUp, ddzDown complex128
}

var (
	cacheMu sync.RWMutex
	cache   = map[chirp.Params]*Synthesizer{}
)

// For returns the shared synthesizer for p, building and caching it on
// first use (like dsp.Plan). Panics on invalid params, mirroring
// chirp.NewModulator.
func For(p chirp.Params) *Synthesizer {
	if p.Oversample == 0 {
		p.Oversample = 1
	}
	cacheMu.RLock()
	s := cache[p]
	cacheMu.RUnlock()
	if s != nil {
		return s
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s = build(p)
	cacheMu.Lock()
	if prev, ok := cache[p]; ok {
		s = prev // lost the build race; share the winner
	} else {
		cache[p] = s
	}
	cacheMu.Unlock()
	return s
}

func build(p chirp.Params) *Synthesizer {
	n := p.N()
	s := &Synthesizer{p: p, n: n, bank: chirp.Upchirp(p)}
	if p.Oversample == 1 {
		// φ(u) = 2π(u²/(2N) − u/2).
		s.a = math.Pi / float64(n)
		s.b = -math.Pi
	} else {
		// φ(x) = 2π(−BW/2·t + slope/2·t²), t = x/fs, in sample units.
		fs := p.SampleRate()
		slope := p.BW / p.SymbolPeriod()
		s.a = math.Pi * slope / (fs * fs)
		s.b = -math.Pi * p.BW / fs
	}
	s.ddzUp = cis(2 * s.a)
	s.ddzDown = cis(2 * -s.a)
	return s
}

// Params returns the synthesizer's parameter set.
func (s *Synthesizer) Params() chirp.Params { return s.p }

func cis(theta float64) complex128 {
	sin, cos := math.Sincos(theta)
	return complex(cos, sin)
}

// renorm pulls v back onto the unit circle with one Newton step of the
// inverse square root — exact to O(δ²) for |v| = 1+δ, and δ stays below
// ~1e-13 between renormalizations.
func renorm(v complex128) complex128 {
	m2 := real(v)*real(v) + imag(v)*imag(v)
	return v * complex(1.5-0.5*m2, 0)
}

// SymbolInto writes the integer-shift symbol into dst (length N),
// matching chirp.Modulator.Symbol sample for sample. At critical
// sampling this is a pure rotated copy of the bank; in aggregate mode it
// mixes the bank with the shift's frequency offset through a first-order
// recurrence.
func (s *Synthesizer) SymbolInto(dst []complex128, shift int) {
	n := s.n
	if len(dst) != n {
		panic(fmt.Sprintf("synth: symbol dst length %d, want %d", len(dst), n))
	}
	shift = ((shift % n) + n) % n
	if s.p.Oversample == 1 {
		copy(dst, s.bank[shift:])
		copy(dst[n-shift:], s.bank[:shift])
		return
	}
	// Aggregate mode: dst[i] = bank[i]·e^{j2π·shift·i/N}.
	step := cis(2 * math.Pi * float64(shift) / float64(n))
	cur := complex(1, 0)
	for i := 0; i < n; i++ {
		dst[i] = s.bank[i] * cur
		cur *= step
		if i%renormEvery == renormEvery-1 {
			cur = renorm(cur)
		}
	}
}

// ShiftedInto writes dst[i] = chirp.EvalShifted(p, shift, x0+i) for
// i in [0, len(dst)) — the analytic fractionally-delayed symbol,
// synthesized by the phase recurrence at two complex multiplies per
// sample. len(dst) may be any length; the cyclic wrap(s) inside the run
// are handled exactly (see the package comment).
func (s *Synthesizer) ShiftedInto(dst []complex128, shift int, x0 float64) {
	s.MixedInto(dst, shift, x0, false, 0, 1)
}

// MixedInto is the analytic fractional-delay mixer: it writes
//
//	dst[i] = E(x0+i) · e^{jω·i} · c0,   ω = omega rad/sample,
//
// where E is chirp.EvalShifted(p, shift, ·) — conjugated when conj is
// set (downchirps) — all inside one recurrence pass. The frequency
// offset only adds a linear term to the quadratic chirp phase, and the
// carrier gain c0 is a constant factor, so mixing costs nothing over
// plain synthesis; the channel simulator uses this to fold its
// oscillator-offset rotation and SNR scaling into symbol synthesis
// instead of two extra passes over every frame.
func (s *Synthesizer) MixedInto(dst []complex128, shift int, x0 float64, conj bool, omega float64, c0 complex128) {
	if len(dst) == 0 {
		return
	}
	mag := math.Hypot(real(c0), imag(c0))
	if mag == 0 {
		zeroComplex(dst)
		return
	}
	phase0 := c0 * complex(1/mag, 0)
	sign := 1.0
	if conj {
		sign = -1
	}
	n := float64(s.n)
	a, b := sign*s.a, sign*s.b
	ddz := s.ddzUp
	if conj {
		ddz = s.ddzDown
	}
	if s.p.Oversample > 1 {
		// Aggregate mode: shift is an initial-frequency offset folded
		// into the linear phase term; the phase is a single unwrapped
		// quadratic — no cyclic wrap.
		b += sign * 2 * math.Pi * float64(shift) / n
		u0 := x0
		z := phase0 * cis(a*u0*u0+b*u0)
		dz := cis(a*(2*u0+1) + b + omega)
		s.run(dst, z, dz, ddz, mag, 0, 0)
		return
	}
	// Critical sampling: u = (x0+shift) mod N, with the wrap constant
	// e^{∓j2π·frac(u0)} applied each time u crosses N (the frequency
	// mix rides on the sample index i, untouched by the wrap).
	u0 := math.Mod(x0+float64(shift), n)
	if u0 < 0 {
		u0 += n
	}
	frac := u0 - math.Floor(u0)
	wrapRot := complex(1, 0)
	if frac != 0 {
		wrapRot = cis(sign * -2 * math.Pi * frac)
	}
	z := phase0 * cis(a*u0*u0+b*u0)
	dz := cis(a*(2*u0+1) + b + omega)
	s.run(dst, z, dz, ddz, mag, int(math.Ceil(n-u0)), wrapRot)
}

// chainMinSeg is the shortest segment the interleaved-chain path
// accepts: below it the chain seeding (a stride's worth of serial
// steps plus the step-ratio powers) costs more than it saves, so short
// segments run the plain serial recurrence. The threshold is a pure
// function of the segment length — never of the CPU — so output bits
// are identical on every platform.
const chainMinSeg = 3 * dsp.SynthChainCount

// run iterates the second-order recurrence dst[i] = mag·z_i with
// z_{i+1} = z_i·dz_i and dz_{i+1} = dz_i·ddz. When toWrap > 0, z is
// multiplied by wrapRot after every s.n-sample period starting toWrap
// samples in (the critical-sampling cyclic wrap); toWrap <= 0 disables
// wrapping (aggregate mode). z must be unit magnitude — the emission
// scale mag keeps renormalization a pure unit-circle projection.
//
// The wrap events split dst into wrap-free segments; each segment runs
// through runSeg's interleaved sub-chains (see below), and the serial
// state is renormalized at every segment boundary.
func (s *Synthesizer) run(dst []complex128, z, dz, ddz complex128, mag float64, toWrap int, wrapRot complex128) {
	if toWrap <= 0 {
		s.runSeg(dst, z, dz, ddz, mag)
		return
	}
	for {
		segLen := min(toWrap, len(dst))
		z, dz = s.runSeg(dst[:segLen], z, dz, ddz, mag)
		dst = dst[segLen:]
		if len(dst) == 0 {
			return
		}
		z = renorm(mulFMA(z, wrapRot))
		dz = renorm(dz)
		toWrap = s.n
	}
}

// runSeg emits one wrap-free segment of the recurrence into dst and
// returns the serial state (z, dz) continued past the segment's end.
//
// Long segments run dsp.SynthChainCount = L interleaved sub-chains:
// sub-chain c owns samples c, c+L, c+2L, … . With the quadratic phase
// ψ(u) = ψ(0) + δ·u + a·u² (δ the linear term at the segment start),
// sub-chain c's per-step factor is
//
//	dzc_c = e^{j(ψ(c+L)−ψ(c))} = e^{j(δL + aL² + 2aLc)} = dzc_0·(ddz^L)^c
//
// and every sub-chain shares the second difference ddz^{L²} = (ddz^L)^L
// — so the seeding needs no trigonometry: the chain start values
// z(0…L−1) and dzc_0 = ∏ dz·ddz^k come from L serial recurrence steps,
// and the ratio ddz^L from log₂L squarings. The L chains are mutually
// independent, which turns the two dependent complex multiplies per
// sample into throughput-bound work for the FMA pipeline
// (dsp.SynthChains8). Per-chain renormalization runs every renormEvery
// chain steps, and the continued state is renormalized by run at each
// segment boundary; DESIGN-synth.md carries the error budget.
func (s *Synthesizer) runSeg(dst []complex128, z, dz, ddz complex128, mag float64) (complex128, complex128) {
	m := len(dst)
	if m < chainMinSeg {
		for i := 0; i < m; i++ {
			dst[i] = complex(real(z)*mag, imag(z)*mag)
			z = mulFMA(z, dz)
			dz = mulFMA(dz, ddz)
			if i%renormEvery == renormEvery-1 {
				z = renorm(z)
				dz = renorm(dz)
			}
		}
		return z, dz
	}

	const L = dsp.SynthChainCount
	var st dsp.SynthChainState
	zc, d := z, dz
	p := complex(1.0, 0)
	for c := 0; c < L; c++ {
		st[c] = real(zc)
		st[L+c] = imag(zc)
		zc = mulFMA(zc, d)
		p = mulFMA(p, d)
		d = mulFMA(d, ddz)
	}
	ratio := powFMA(ddz, L) // ddz^L
	dL := powFMA(ratio, L)  // ddz^{L²}: the shared chain second difference
	for c := 0; c < L; c++ {
		st[2*L+c] = real(p)
		st[3*L+c] = imag(p)
		p = mulFMA(p, ratio)
	}

	steps := m / L
	rem := m - steps*L
	done := 0
	for done < steps {
		blk := min(renormEvery, steps-done)
		dsp.SynthChains8(dst[done*L:], &st, dL, mag, blk)
		done += blk
		if blk == renormEvery {
			renormChains(&st)
		}
	}
	for c := 0; c < rem; c++ {
		dst[steps*L+c] = complex(st[c]*mag, st[L+c]*mag)
	}
	// Continuation: after `steps` chain steps, sub-chain c holds
	// z(steps·L + c), so z(m) is chain rem's state; dz(m) advances the
	// second-order factor m steps, dz·ddz^m.
	zNext := complex(st[rem], st[L+rem])
	dzNext := mulFMA(dz, powFMA(ddz, m))
	return zNext, dzNext
}

// mulFMA is the complex product with fused inner terms:
// re = FMA(ar, br, −ai·bi), im = FMA(ar, bi, ai·br) — one rounding
// fewer per component than the plain expansion, deterministic on every
// platform (math.FMA), and exactly the operation dsp's FMA kernels
// perform per lane.
func mulFMA(a, b complex128) complex128 {
	ar, ai := real(a), imag(a)
	br, bi := real(b), imag(b)
	return complex(math.FMA(ar, br, -(ai*bi)), math.FMA(ar, bi, ai*br))
}

// powFMA returns v^k (k >= 0) by binary exponentiation over mulFMA —
// O(log k) multiplies, deterministic bits on every platform.
func powFMA(v complex128, k int) complex128 {
	r := complex(1.0, 0)
	for k > 0 {
		if k&1 != 0 {
			r = mulFMA(r, v)
		}
		v = mulFMA(v, v)
		k >>= 1
	}
	return r
}

// renormChains pulls every sub-chain's z and d back onto the unit
// circle with the same Newton step renorm applies, in the fused form
// m² = FMA(re, re, im·im) the chain kernels' error analysis assumes.
func renormChains(st *dsp.SynthChainState) {
	const L = dsp.SynthChainCount
	for c := 0; c < L; c++ {
		zr, zi := st[c], st[L+c]
		sc := 1.5 - 0.5*math.FMA(zr, zr, zi*zi)
		st[c], st[L+c] = zr*sc, zi*sc
		dr, di := st[2*L+c], st[3*L+c]
		sc = 1.5 - 0.5*math.FMA(dr, dr, di*di)
		st[2*L+c], st[3*L+c] = dr*sc, di*sc
	}
}
