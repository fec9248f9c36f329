package core

import (
	"fmt"

	"netscatter/internal/pool"
)

// Symbol-batch sizing for the parallel pipeline: workers claim whole
// runs of symbols, not single symbols, so each work item amortizes one
// planar batch pass (dechirp + pruned FFT + scan) and the pool's
// per-item overhead. The preamble is only six symbols, so its tiles are
// small to keep some fan-out; payload runs are long enough for full
// tiles.
const (
	preBatchSymbols = 2
	payBatchSymbols = 8
)

// ParallelDecoder fans the symbol-batch work of DecodeFrame — dechirp,
// pruned planar FFT, noise quantile, candidate window scan — across a
// bounded worker set. Each work item is a whole run of symbols through
// the batched front-end (chirp.SpectraBatchInto / chirp.ScanBatch),
// writing disjoint slices of the shared arenas. The batch calls are
// safe for concurrent use and borrow their scratch per call, so every
// worker shares the serial decoder's demodulator and no worker owns
// any state. Everything that determines the decode outcome
// (statistic accumulation, thresholds, CRC, ghost rejection) runs
// serially in a fixed order on the embedded serial Decoder's arenas, so
// the parallel decoder's FrameDecode is bit-identical to the serial
// decoder's — and hence to DecodeFrameOracle's — for the same input.
//
// Like Decoder, a ParallelDecoder is not safe for concurrent use (it is
// itself the concurrency), and its results alias decoder-owned storage
// valid until the next DecodeFrame call.
type ParallelDecoder struct {
	dec     *Decoder
	workers int

	// Persistent phase funcs plus the in-flight call state they read;
	// fresh closures per DecodeFrame would put two heap allocations
	// back on the steady-state path.
	preWorker                               func(w, batch int)
	payWorker                               func(w, batch int)
	curSig                                  []complex128
	curStart                                int
	curPayStart, curHalfIdx, curPayloadBits int

	// curPre is the arena phase-1 workers write preamble spectra into:
	// the preamble rows the decode borrowed normally, the caller's emit
	// arena on DecodeFrameEmit. curEmitPay, non-nil only during
	// DecodeFrameEmit, is the payload section of the emit arena for
	// phase-2 ScanBatchEmit calls.
	curPre     []float64
	curEmitPay []float64
}

// NewParallelDecoder builds a parallel decoder over a code book with the
// given worker count; workers <= 0 means pool.Size() (GOMAXPROCS). One
// worker degrades gracefully to the serial path with zero goroutines.
// The count caps a decode's goroutines; it costs no memory, since
// workers share one demodulator and borrow scratch only while they run.
func NewParallelDecoder(book *CodeBook, cfg DecoderConfig, workers int) *ParallelDecoder {
	if workers <= 0 {
		workers = pool.Size()
	}
	pd := &ParallelDecoder{dec: NewDecoder(book, cfg), workers: workers}
	pd.preWorker = pd.preBatch
	pd.payWorker = pd.payBatch
	return pd
}

// batchCount returns how many batch work items cover n symbols.
func batchCount(n, tile int) int {
	return (n + tile - 1) / tile
}

// preBatch computes one preamble symbol batch — spectra into the shared
// arena plus per-symbol noise estimates — for the in-flight DecodeFrame
// (phase 1 work item).
func (pd *ParallelDecoder) preBatch(_, batch int) {
	d := pd.dec
	n := d.book.Params().N()
	lo := batch * preBatchSymbols
	hi := min(PreambleUpSymbols, lo+preBatchSymbols)
	bins := d.dem.PaddedBins()
	d.dem.SpectraBatchInto(pd.curPre[lo*bins:hi*bins], pd.curSig, pd.curStart+lo*n, hi-lo, &d.plan)
	d.preambleNoise(lo, hi, 1)
}

// payBatch runs one payload symbol batch through the fused
// dechirp+FFT+scan kernel, scattering peak powers into the shared
// candidate-major arena (phase 2 work item). Batches own disjoint
// symbol columns, so every (candidate, symbol) cell is written by
// exactly one worker.
func (pd *ParallelDecoder) payBatch(_, batch int) {
	d := pd.dec
	lo := batch * payBatchSymbols
	hi := min(pd.curPayloadBits, lo+payBatchSymbols)
	if pd.curEmitPay != nil {
		d.dem.ScanBatchEmit(pd.curSig, pd.curPayStart, lo, hi-lo, d.payCenter, pd.curHalfIdx, d.powers, pd.curPayloadBits, pd.curEmitPay, &d.plan)
		return
	}
	d.dem.ScanBatch(pd.curSig, pd.curPayStart, lo, hi-lo, d.payCenter, pd.curHalfIdx, d.powers, pd.curPayloadBits, &d.plan)
}

// Serial returns the embedded serial decoder (which shares this
// decoder's result arenas — do not interleave DecodeFrame calls on both
// while holding results).
func (pd *ParallelDecoder) Serial() *Decoder { return pd.dec }

// Book returns the decoder's code book.
func (pd *ParallelDecoder) Book() *CodeBook { return pd.dec.Book() }

// Workers returns the worker count.
func (pd *ParallelDecoder) Workers() int { return pd.workers }

// DecodeFrame is Decoder.DecodeFrame with the symbol batches computed in
// parallel. Output is bit-identical to the serial path.
func (pd *ParallelDecoder) DecodeFrame(sig []complex128, start int, shifts []int, payloadBits int) (*FrameDecode, error) {
	return pd.decodeFrame(sig, start, shifts, payloadBits, nil)
}

// DecodeFrameEmit is Decoder.DecodeFrameEmit with the symbol batches
// computed in parallel: workers write their spectra rows (disjoint
// sections of emit) alongside the scan, and the decode outcome stays
// bit-identical to the serial emit path — and hence to DecodeFrame.
// As on the serial path, with a calibrated noise floor only the window
// plan's bins of emit are written; the rest are unspecified.
func (pd *ParallelDecoder) DecodeFrameEmit(sig []complex128, start int, shifts []int, payloadBits int, emit []float64) (*FrameDecode, error) {
	if len(emit) < pd.dec.EmitLen(payloadBits) {
		return nil, fmt.Errorf("core: emit arena length %d, want at least %d", len(emit), pd.dec.EmitLen(payloadBits))
	}
	return pd.decodeFrame(sig, start, shifts, payloadBits, emit)
}

func (pd *ParallelDecoder) decodeFrame(sig []complex128, start int, shifts []int, payloadBits int, emit []float64) (*FrameDecode, error) {
	d := pd.dec
	if err := d.begin(sig, start, shifts, payloadBits); err != nil {
		return nil, err
	}
	n := d.book.Params().N()
	pd.curSig, pd.curStart, pd.curPayloadBits = sig, start, payloadBits
	pd.curPre, pd.curEmitPay = d.preambleRows(emit), nil
	if emit != nil {
		pd.curEmitPay = emit[len(pd.curPre):]
	}

	// Phase 1: preamble spectra and per-symbol noise estimates, one
	// symbol batch per work item. Workers write disjoint spectra slots
	// and disjoint noisePerSym entries; the reduction below runs
	// serially in symbol order, so the noise average is bit-identical to
	// the serial decoder's.
	pool.ForEachWorker(pd.workers, batchCount(PreambleUpSymbols, preBatchSymbols), pd.preWorker)
	noise := d.reduceNoise()
	d.accumPreamble(d.preSpec[:], shifts, noise)
	pd.curPre = nil
	d.releasePreamble()

	// Phase 2: payload symbol batches through the fused scan kernel.
	d.preparePayload(payloadBits)
	pd.curPayStart = start + PreambleSymbols*n
	pd.curHalfIdx = d.trackHalf()
	pool.ForEachWorker(pd.workers, batchCount(payloadBits, payBatchSymbols), pd.payWorker)

	pd.curSig, pd.curEmitPay = nil, nil
	d.finish(noise, payloadBits)
	d.rejectGhosts(d.devices)
	return &d.res, nil
}
