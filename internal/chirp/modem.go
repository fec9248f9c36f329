package chirp

import (
	"fmt"

	"netscatter/internal/dsp"
)

// Modulator synthesizes cyclic-shifted chirp symbols for one parameter
// set. The baseline upchirp is generated once; each symbol is a cyclic
// rotation (plus a band frequency offset in aggregate-bandwidth mode).
type Modulator struct {
	p  Params
	up []complex128
}

// NewModulator builds a modulator for p.
func NewModulator(p Params) *Modulator {
	p = p.norm()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Modulator{p: p, up: Upchirp(p)}
}

// Symbol returns a freshly allocated upchirp symbol with the given cyclic
// shift. At critical sampling (Oversample == 1) shifts are realized as
// time rotations — what the backscatter chirp generator does in hardware,
// where the wrapped tail aliases back into the same dechirped bin. In
// aggregate-bandwidth mode (Oversample > 1) a time rotation would split
// its energy across bands (the wrap segment aliases at the aggregate band
// edge, fs = Oversample·BW, not at BW), so the shift is realized as the
// equivalent initial-frequency offset instead: the chirp sweeping from
// shift·BW/2^SF, aliasing at the aggregate edge exactly as in Fig. 5.
// The paper's FPGA chirp generator programs initial frequency directly
// (§4.1: "generate assigned cyclic shift with required frequency
// offset"), so this is hardware-faithful too.
func (m *Modulator) Symbol(shift int) []complex128 {
	p := m.p
	shift = dsp.WrapIndex(shift, p.N())
	if p.Oversample == 1 {
		return CyclicShift(m.up, shift)
	}
	sym := make([]complex128, len(m.up))
	copy(sym, m.up)
	ApplyFreqOffset(sym, float64(shift)*p.BinHz(), p.SampleRate())
	return sym
}

// AppendSymbol appends Symbol(shift) to dst and returns the extended
// slice, writing the rotation (or frequency mix) directly into the
// appended region — no throwaway per-symbol slice.
func (m *Modulator) AppendSymbol(dst []complex128, shift int) []complex128 {
	p := m.p
	shift = dsp.WrapIndex(shift, p.N())
	if p.Oversample == 1 {
		dst = append(dst, m.up[shift:]...)
		return append(dst, m.up[:shift]...)
	}
	base := len(dst)
	dst = append(dst, m.up...)
	ApplyFreqOffset(dst[base:], float64(shift)*p.BinHz(), p.SampleRate())
	return dst
}

// Demodulator de-spreads chirp symbols and locates FFT peaks with
// zero-padded sub-bin resolution (the receiver performs one dechirp and
// one FFT per symbol regardless of how many devices transmit — the
// paper's constant-receiver-complexity claim). The forward transform
// is zero-pad pruned: only the first N of the ZeroPad·N padded samples
// are nonzero, so the early butterfly stages collapse and the zero tail
// is never even written.
//
// Concurrency: the batch calls (SpectraBatchInto, ScanBatch,
// ScanBatchEmit) are safe for concurrent use — they keep no per-call
// state on the demodulator and borrow their planar tile from the dsp
// scratch free list for the length of the call, so every worker of a
// parallel decoder shares one demodulator. ScanPeaks, PeakNear and the
// index conversions only read it. The single-symbol Spectrum reuses
// demodulator-owned buffers and is not safe for concurrent use.
type Demodulator struct {
	p       Params
	zeroPad int
	padN    int
	down    []complex128
	plan    *dsp.FFTPlan
	bplan   *dsp.BatchPlan // planar pruned-FFT plan of the batch calls

	// Single-symbol scratch, allocated by the first Spectrum call (a
	// demodulator only ever driven through the batch calls owns none):
	// the transform buffer and the power spectrum Spectrum returns.
	padBuf []complex128
	power  []float64
}

// NewDemodulator builds a demodulator with the given zero-padding factor
// (>= 1). The padded FFT has ZeroPad·N bins; Fig. 8 of the paper uses a
// 10x padding (5120 bins for SF 9).
func NewDemodulator(p Params, zeroPad int) *Demodulator {
	p = p.norm()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if zeroPad < 1 {
		panic(fmt.Sprintf("chirp: zero-pad factor %d must be >= 1", zeroPad))
	}
	padN := dsp.NextPow2(p.N() * zeroPad)
	return &Demodulator{
		p:       p,
		zeroPad: padN / p.N(),
		padN:    padN,
		down:    Downchirp(p),
		plan:    dsp.Plan(padN),
		bplan:   dsp.PlanBatch(padN, p.N()),
	}
}

// ZeroPad returns the effective padding factor (rounded up to keep the
// FFT size a power of two).
func (d *Demodulator) ZeroPad() int { return d.zeroPad }

// PaddedBins returns the number of bins in the padded spectrum.
func (d *Demodulator) PaddedBins() int { return d.padN }

// Spectrum de-spreads one received symbol (len == N) against the baseline
// downchirp, zero-pads, and returns the power spectrum. The returned
// slice aliases an internal buffer valid until the next call.
func (d *Demodulator) Spectrum(sym []complex128) []float64 {
	n := d.p.N()
	if len(sym) != n {
		panic(fmt.Sprintf("chirp: symbol length %d, want %d", len(sym), n))
	}
	if d.padBuf == nil {
		d.padBuf = make([]complex128, d.padN)
		d.power = make([]float64, d.padN)
	}
	// Fused dechirp: the product lands directly in the transform buffer's
	// nonzero prefix; the padded tail is never touched (ForwardPruned
	// ignores it).
	for i := 0; i < n; i++ {
		d.padBuf[i] = sym[i] * d.down[i]
	}
	d.plan.ForwardPruned(d.padBuf, n)
	return dsp.PowerSpectrum(d.power, d.padBuf)
}

// BinOf converts a padded-spectrum index to a (possibly fractional)
// chirp bin in [0, N).
func (d *Demodulator) BinOf(paddedIdx int) float64 {
	return float64(paddedIdx) / float64(d.zeroPad)
}

// PaddedIndexOf converts an integer chirp bin to the corresponding
// padded-spectrum index.
func (d *Demodulator) PaddedIndexOf(bin int) int {
	return dsp.WrapIndex(bin, d.p.N()) * d.zeroPad
}

// PeakNear returns the maximum power in the padded spectrum within
// ±halfBins (fractional chirp bins) of the expected integer bin, along
// with the fractional bin where it occurs. The concurrent decoder calls
// this once per device per symbol on the shared spectrum.
func PeakNear(d *Demodulator, spec []float64, bin int, halfBins float64) (power float64, at float64) {
	center := d.PaddedIndexOf(bin)
	half := int(halfBins * float64(d.zeroPad))
	idx, pw := windowMax(spec, center, half)
	return pw, d.BinOf(idx)
}

// ScanPeaks locates, for every candidate cyclic shift, the strongest peak
// within ±halfBins chirp bins of its assigned bin — the whole candidate
// set against one shared spectrum in a single pass. outPow[i] receives
// the peak power and outAt[i] (when non-nil) the fractional chirp bin of
// the peak. The inner window loops index the spectrum directly, wrapping
// only at the circular boundary, unlike a per-element modulo walk.
func (d *Demodulator) ScanPeaks(spec []float64, shifts []int, halfBins float64, outPow, outAt []float64) {
	half := int(halfBins * float64(d.zeroPad))
	for i, s := range shifts {
		center := d.PaddedIndexOf(s)
		idx, pw := windowMax(spec, center, half)
		outPow[i] = pw
		if outAt != nil {
			outAt[i] = d.BinOf(idx)
		}
	}
}

// ScanPaddedCenters writes into outPow[i] the maximum power within ±half
// padded bins of centers[i] (a padded-spectrum index). A negative center
// skips that slot, leaving outPow[i] untouched — the payload tracker uses
// this to scan only detected candidates.
func ScanPaddedCenters(spec []float64, centers []int, half int, outPow []float64) {
	for i, c := range centers {
		if c < 0 {
			continue
		}
		_, pw := windowMax(spec, c, half)
		outPow[i] = pw
	}
}

// windowMax returns the index and value of the largest element in the
// circular window [center-half, center+half] of spec. Windows that do
// not straddle the boundary — the overwhelmingly common case — run as a
// single direct slice scan.
func windowMax(spec []float64, center, half int) (idx int, val float64) {
	n := len(spec)
	lo, hi := center-half, center+half
	if lo >= 0 && hi < n {
		idx, val = lo, spec[lo]
		for i := lo + 1; i <= hi; i++ {
			if spec[i] > val {
				idx, val = i, spec[i]
			}
		}
		return idx, val
	}
	return dsp.MaxInWindow(spec, center, half)
}
