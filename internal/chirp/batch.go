package chirp

import (
	"fmt"

	"netscatter/internal/dsp"
)

// Batched receive front-end. The per-symbol receiver cost is one
// dechirp, one zero-pad-pruned FFT and one spectrum read-off; the batch
// kernels below run a whole run of candidate symbols through those
// stages in one pre-planned pass over a planar (split real/imaginary)
// buffer — the layout dsp.BatchPlan's bounds-check-free butterfly loops
// operate on. Results are bit-identical to the single-symbol
// Spectrum/ScanPaddedCenters path, which core's tests keep as the
// decoder's exactness oracle (DecodeFrameOracle in oracle_test.go).

// batchTile bounds how many symbols are dechirped into the planar
// scratch per ForwardBatch pass: 8 symbols of a 4096-bin padded
// transform are 512 KiB of planar floats — enough to amortize per-pass
// overhead while keeping the scratch's cache footprint bounded.
const batchTile = 8

// borrowTile lends the planar scratch of one batch call from the dsp
// free list: a single buffer holding the real and imaginary planes of a
// batchTile-symbol tile, the imaginary plane dsp.PlaneSkew floats past
// the real one's end so the two planes do not 4K-alias. Every batch
// call borrows the same length, so the calls of a decode reuse one
// cache-warm buffer. The caller hands buf back with dsp.ReturnFloat64
// when the call ends.
func (d *Demodulator) borrowTile() (buf, re, im []float64) {
	m := batchTile * d.padN
	buf = dsp.BorrowFloat64(2*m + dsp.PlaneSkew)
	return buf, buf[:m:m], buf[m+dsp.PlaneSkew:]
}

// dechirpTile writes the dechirped products of count consecutive
// symbols (symbol indices firstSym, firstSym+1, … relative to sample
// index start) into the prefixes of the planar tile (re, im) and runs
// the batched pruned transform over them. Only the first N entries of
// each padN-long stride are written — the pruned transform treats the
// tail as zero without reading it. Only plan's bins of the transform
// are guaranteed (nil: every bin).
func (d *Demodulator) dechirpTile(re, im []float64, sig []complex128, start, firstSym, count int, plan *dsp.BinPlan) {
	n := d.p.N()
	padN := d.padN
	down := d.down
	for s := 0; s < count; s++ {
		sym := sig[start+(firstSym+s)*n : start+(firstSym+s+1)*n]
		dsp.Dechirp(re[s*padN:s*padN+n], im[s*padN:s*padN+n], sym, down[:n])
	}
	d.bplan.ForwardBatch(re, im, count, plan)
}

// SpectraBatchInto computes the power spectra of nSyms consecutive
// symbols of sig beginning at sample index start through the planar
// batch pipeline, writing symbol s's spectrum into
// dst[s·PaddedBins() : (s+1)·PaddedBins()] (len(dst) >= nSyms·
// PaddedBins()). Every bin of plan (nil: every bin) is bit-identical to
// what Spectrum produces symbol by symbol; bins outside the plan are
// left unspecified, neither transformed nor squared. The decoders'
// workers fill disjoint sections of one shared arena, a whole symbol
// batch per work item.
func (d *Demodulator) SpectraBatchInto(dst []float64, sig []complex128, start, nSyms int, plan *dsp.BinPlan) {
	n := d.p.N()
	padN := d.padN
	if start < 0 || start+nSyms*n > len(sig) {
		panic(fmt.Sprintf("chirp: SpectraBatch window [%d, %d) outside signal of %d samples",
			start, start+nSyms*n, len(sig)))
	}
	if len(dst) < nSyms*padN {
		panic(fmt.Sprintf("chirp: SpectraBatch dst length %d, want at least %d", len(dst), nSyms*padN))
	}
	buf, re, im := d.borrowTile()
	for lo := 0; lo < nSyms; lo += batchTile {
		count := min(batchTile, nSyms-lo)
		d.dechirpTile(re, im, sig, start, lo, count, plan)
		for s := 0; s < count; s++ {
			plan.PowerSpectrum(dst[(lo+s)*padN:(lo+s+1)*padN], re[s*padN:(s+1)*padN], im[s*padN:(s+1)*padN])
		}
	}
	dsp.ReturnFloat64(buf)
}

// ScanBatch fuses the payload tracker's per-symbol pipeline: it
// dechirps and transforms symbols [firstSym, firstSym+nSyms) of the
// frame section starting at sample index start, then scans each
// candidate's ±half padded-bin window and writes the peak power of
// candidate i at symbol s into out[i·stride + s] — candidate-major,
// directly into the decoder's power arena, with no intermediate power
// spectrum ever materialized (window powers are read straight off the
// planar transform). Negative centers skip their candidate, leaving the
// arena untouched, exactly like ScanPaddedCenters. plan (nil: every
// bin) must hold every scanned window; the transform only guarantees
// its bins.
func (d *Demodulator) ScanBatch(sig []complex128, start, firstSym, nSyms int, centers []int, half int, out []float64, stride int, plan *dsp.BinPlan) {
	n := d.p.N()
	padN := d.padN
	if start < 0 || start+(firstSym+nSyms)*n > len(sig) {
		panic(fmt.Sprintf("chirp: ScanBatch window [%d, %d) outside signal of %d samples",
			start+firstSym*n, start+(firstSym+nSyms)*n, len(sig)))
	}
	buf, tileRe, tileIm := d.borrowTile()
	for lo := 0; lo < nSyms; lo += batchTile {
		count := min(batchTile, nSyms-lo)
		d.dechirpTile(tileRe, tileIm, sig, start, firstSym+lo, count, plan)
		for s := 0; s < count; s++ {
			re := tileRe[s*padN : (s+1)*padN]
			im := tileIm[s*padN : (s+1)*padN]
			col := firstSym + lo + s
			for i, c := range centers {
				if c < 0 {
					continue
				}
				out[i*stride+col] = planarWindowPower(re, im, c, half)
			}
		}
	}
	dsp.ReturnFloat64(buf)
}

// ScanBatchEmit is ScanBatch with the power spectra kept: besides the
// fused dechirp+FFT+window scan, the power spectrum of symbol column
// col = firstSym+lo+s is materialized at plan's bins into
// emit[col·PaddedBins() : (col+1)·PaddedBins()] through the same
// planned power pass SpectraBatchInto uses, so the emitted plan bins
// are bit-identical to the spectra the fused kernel would otherwise
// discard; bins outside the plan are left unspecified. The scan output
// in out is untouched relative to ScanBatch; emitting is a pure
// by-product. The soft cross-AP combiner sums emitted arenas across
// APs before one combined decode.
func (d *Demodulator) ScanBatchEmit(sig []complex128, start, firstSym, nSyms int, centers []int, half int, out []float64, stride int, emit []float64, plan *dsp.BinPlan) {
	n := d.p.N()
	padN := d.padN
	if start < 0 || start+(firstSym+nSyms)*n > len(sig) {
		panic(fmt.Sprintf("chirp: ScanBatchEmit window [%d, %d) outside signal of %d samples",
			start+firstSym*n, start+(firstSym+nSyms)*n, len(sig)))
	}
	if len(emit) < (firstSym+nSyms)*padN {
		panic(fmt.Sprintf("chirp: ScanBatchEmit emit length %d, want at least %d", len(emit), (firstSym+nSyms)*padN))
	}
	buf, tileRe, tileIm := d.borrowTile()
	for lo := 0; lo < nSyms; lo += batchTile {
		count := min(batchTile, nSyms-lo)
		d.dechirpTile(tileRe, tileIm, sig, start, firstSym+lo, count, plan)
		for s := 0; s < count; s++ {
			re := tileRe[s*padN : (s+1)*padN]
			im := tileIm[s*padN : (s+1)*padN]
			col := firstSym + lo + s
			plan.PowerSpectrum(emit[col*padN:(col+1)*padN], re, im)
			for i, c := range centers {
				if c < 0 {
					continue
				}
				out[i*stride+col] = planarWindowPower(re, im, c, half)
			}
		}
	}
	dsp.ReturnFloat64(buf)
}

// planarWindowPower returns the maximum |X[k]|² in the circular window
// [center-half, center+half] of the planar spectrum (re, im). Window
// powers use the exact PowerSpectrum expression and the exact windowMax
// scan order, so the result is bit-identical to materializing the power
// spectrum and calling windowMax on it.
func planarWindowPower(re, im []float64, center, half int) float64 {
	n := len(re)
	lo, hi := center-half, center+half
	if lo >= 0 && hi < n {
		// Contiguous window: dsp's max-power kernel (AVX2 with a
		// bit-identical scalar fallback).
		return dsp.MaxPower(re[lo:hi+1], im[lo:hi+1])
	}
	// Boundary-straddling window: mirror dsp.MaxInWindow's walk.
	val := 0.0
	first := true
	for off := -half; off <= half; off++ {
		i := dsp.WrapIndex(center+off, n)
		r, m := re[i], im[i]
		p := r*r + m*m
		if first || p > val {
			val = p
			first = false
		}
	}
	return val
}
