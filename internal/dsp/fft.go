// Package dsp provides the digital signal processing substrate used by the
// NetScatter reproduction: a radix-2 FFT, spectral helpers, peak search,
// deterministic random distributions and small statistics utilities.
//
// Everything operates on []complex128 baseband samples. The FFT is an
// in-place iterative Cooley-Tukey transform with cached twiddle factors so
// the receiver hot path (one FFT per CSS symbol) does not allocate. The
// ForwardPruned variant exploits the zero-padded structure of the
// NetScatter receiver's input (§3.2.3: only the first N of ZeroPad·N
// samples carry the dechirped symbol) to skip the early butterfly stages
// entirely.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPow2 returns the smallest power of two >= n. It panics if n <= 0.
func NextPow2(n int) int {
	if n <= 0 {
		panic("dsp: NextPow2 requires n > 0")
	}
	if IsPow2(n) {
		return n
	}
	return 1 << bits.Len(uint(n))
}

// Log2 returns log2(n) for a power-of-two n.
func Log2(n int) int {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: Log2 of non power of two %d", n))
	}
	return bits.TrailingZeros(uint(n))
}

// FFTPlan holds the precomputed bit-reversal permutation and twiddle
// factors for a fixed power-of-two transform size. A plan is safe for
// concurrent use: Forward, ForwardPruned and Inverse only read the plan.
type FFTPlan struct {
	n        int
	perm     []int        // bit-reversal permutation
	twiddles []complex128 // e^{-2πik/n} for k in [0, n/2)
	conj     []complex128 // e^{+2πik/n}: inverse twiddles, precomputed so
	// the butterfly loops carry no direction branch
}

// NewFFT builds a transform plan for size n (a power of two).
func NewFFT(n int) *FFTPlan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	p := &FFTPlan{n: n}
	p.perm = make([]int, n)
	shift := 64 - uint(Log2(n))
	for i := range p.perm {
		p.perm[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	p.twiddles = make([]complex128, n/2)
	p.conj = make([]complex128, n/2)
	for k := range p.twiddles {
		angle := -2 * math.Pi * float64(k) / float64(n)
		w := complex(math.Cos(angle), math.Sin(angle))
		p.twiddles[k] = w
		p.conj[k] = complex(real(w), -imag(w))
	}
	return p
}

// Size returns the transform size.
func (p *FFTPlan) Size() int { return p.n }

// Forward computes the in-place forward DFT of x. len(x) must equal the
// plan size.
func (p *FFTPlan) Forward(x []complex128) {
	p.checkLen(x)
	p.bitReverse(x)
	p.butterflies(x, p.twiddles, 2)
}

// Inverse computes the in-place inverse DFT of x, including the 1/n
// normalization, so Inverse(Forward(x)) == x.
func (p *FFTPlan) Inverse(x []complex128) {
	p.checkLen(x)
	p.bitReverse(x)
	p.butterflies(x, p.conj, 2)
	scale := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= scale
	}
}

// ForwardPruned computes the forward DFT of x assuming only the first
// nonzero samples are meaningful; the tail x[nonzero:] is treated as
// zero regardless of its contents (callers need not clear it). nonzero
// must be a power of two dividing the plan size.
//
// For zero-padded input the first log2(n/nonzero) butterfly stages
// degenerate: in bit-reversed order the nonzero samples land on
// multiples of z = n/nonzero, so each z-aligned block holds a single
// value whose size-z sub-DFT is a constant broadcast. ForwardPruned
// replaces those stages with the broadcast and enters the butterfly
// cascade at size 2z — at the receiver's ZeroPad=8 this removes three of
// twelve stages plus the whole tail zero-fill, roughly halving the
// per-symbol transform cost.
func (p *FFTPlan) ForwardPruned(x []complex128, nonzero int) {
	p.checkLen(x)
	if nonzero >= p.n {
		p.bitReverse(x)
		p.butterflies(x, p.twiddles, 2)
		return
	}
	if !IsPow2(nonzero) || nonzero <= 0 {
		panic(fmt.Sprintf("dsp: pruned FFT nonzero prefix %d must be a power of two", nonzero))
	}
	z := p.n / nonzero
	// Bit-reverse the nonzero prefix in place. For i < nonzero the full
	// permutation satisfies perm[i] = rev_m(i)·z with m = nonzero, so
	// rev_m(i) = perm[i]/z and the swap stays inside the prefix.
	for i := 0; i < nonzero; i++ {
		if j := p.perm[i] / z; i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Broadcast each prefix value across its z-block, walking backwards
	// so no value is overwritten before it is read (i ≤ i·z).
	for i := nonzero - 1; i >= 0; i-- {
		v := x[i]
		blk := x[i*z : i*z+z]
		for k := range blk {
			blk[k] = v
		}
	}
	p.butterflies(x, p.twiddles, 2*z)
}

func (p *FFTPlan) checkLen(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: FFT input length %d does not match plan size %d", len(x), p.n))
	}
}

func (p *FFTPlan) bitReverse(x []complex128) {
	for i, j := range p.perm {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// butterflies runs the iterative Cooley-Tukey cascade from stage size
// firstSize (a power of two >= 2) up to the full transform, reading
// twiddles from tw — the forward or conjugate table, so the inner loop
// carries no direction branch.
func (p *FFTPlan) butterflies(x []complex128, tw []complex128, firstSize int) {
	n := p.n
	for size := firstSize; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				t := tw[k] * x[i+half]
				x[i+half] = x[i] - t
				x[i] = x[i] + t
				k += step
			}
		}
	}
}

var (
	planMu    sync.Mutex
	planCache = map[int]*FFTPlan{}
)

// Plan returns a cached FFT plan for size n, building it on first use.
func Plan(n int) *FFTPlan {
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := planCache[n]; ok {
		return p
	}
	p := NewFFT(n)
	planCache[n] = p
	return p
}

// FFT returns the forward DFT of x in a fresh slice. len(x) must be a
// power of two.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	Plan(len(x)).Forward(out)
	return out
}

// IFFT returns the normalized inverse DFT of x in a fresh slice.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	Plan(len(x)).Inverse(out)
	return out
}

// ZeroPad copies x into a slice of length padLen (>= len(x)) with zeros
// appended. Zero-padding before an FFT interpolates the spectrum, giving
// the sub-bin resolution the NetScatter receiver needs (§3.2.3).
func ZeroPad(x []complex128, padLen int) []complex128 {
	if padLen < len(x) {
		panic("dsp: ZeroPad target shorter than input")
	}
	out := make([]complex128, padLen)
	copy(out, x)
	return out
}

// PowerSpectrum writes |x[i]|^2 into dst and returns it.
func PowerSpectrum(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i, v := range x {
		re, im := real(v), imag(v)
		dst[i] = re*re + im*im
	}
	return dst
}

// SignalEnergy returns the total energy sum(|x|^2) of the samples.
func SignalEnergy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// SignalPower returns the mean power of the samples.
func SignalPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return SignalEnergy(x) / float64(len(x))
}
