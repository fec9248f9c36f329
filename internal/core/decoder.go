package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
	"netscatter/internal/pool"
)

// DecoderConfig tunes the concurrent decoder. The zero value is not
// valid; use DefaultDecoderConfig.
type DecoderConfig struct {
	// ZeroPad is the FFT zero-padding factor for sub-bin resolution
	// (§3.2.3). Fig. 8 of the paper corresponds to 10x; 8 keeps the
	// padded size a power of two.
	ZeroPad int
	// DetectFactor is how far (linear power ratio) a device's mean
	// preamble peak must sit above the estimated noise-bin power to be
	// declared present.
	DetectFactor float64
	// PresentFactor is the per-symbol bar each preamble symbol must
	// clear (lower than DetectFactor; non-coherent averaging over the
	// six upchirps does the heavy lifting).
	PresentFactor float64
	// MinPresent is how many of the six preamble upchirps must
	// individually clear PresentFactor.
	MinPresent int
	// GuardBins is the half-width (in FFT bins) of the preamble search
	// window around a device's assigned bin; it must accommodate the
	// residual timing/frequency offset, i.e. about SKIP/2.
	GuardBins float64
	// TrackBins is the tighter payload search half-width around the
	// device's preamble-estimated bin.
	TrackBins float64
	// OOKFactor is the fraction of a device's mean preamble peak power
	// used as its ON/OFF decision threshold. The paper uses 1/2
	// (§3.3.1). At full SKIP=2 density the preamble reference is biased
	// high — every neighbour is ON during the preamble but only half
	// the time during the payload, so '1' powers fluctuate below the
	// preamble mean — and a somewhat lower factor is more robust; the
	// threshold ablation bench quantifies the trade-off.
	OOKFactor float64
	// OOKNoiseGuard lower-bounds the OOK threshold at this multiple of
	// the per-bin noise power, protecting '0' decisions when a device
	// operates far below the noise floor (where OOKFactor·meanPeak
	// approaches the noise level itself).
	OOKNoiseGuard float64
	// NoiseFloor, when positive, is the calibrated per-padded-bin noise
	// power (receivers measure their thermal floor while no tag
	// transmits — the AP controls the schedule, so quiet intervals are
	// free). When zero, the decoder falls back to estimating the floor
	// from the lower quartile of each spectrum, which overestimates
	// badly at full device density: with 256 concurrent main lobes
	// there are no noise-only bins left to sample.
	NoiseFloor float64
	// GhostFactor rejects side-lobe ghosts: a strong device's Dirichlet
	// side lobes carry its exact OOK pattern, so an unoccupied candidate
	// bin can "decode" a CRC-valid replica of that device's frame at
	// -13.5 dB or below. A detected candidate whose bits are identical
	// to another detected candidate's and whose mean peak power is more
	// than GhostFactor times weaker is demoted. Zero disables the check.
	GhostFactor float64
}

// DefaultDecoderConfig returns the configuration used for the paper's
// deployment parameters (SKIP = 2).
func DefaultDecoderConfig(skip int) DecoderConfig {
	return DecoderConfig{
		ZeroPad:       8,
		DetectFactor:  4,
		PresentFactor: 1.8,
		MinPresent:    5,
		GuardBins:     float64(skip) / 2,
		TrackBins:     0.3,
		OOKFactor:     0.35,
		OOKNoiseGuard: 3.5,
		GhostFactor:   15, // ~11.8 dB, safely under the -13.5 dB first side lobe
	}
}

// DeviceDecode is the decode outcome for one candidate cyclic shift.
type DeviceDecode struct {
	// Shift is the candidate cyclic shift (FFT bin) examined.
	Shift int
	// Detected reports whether the preamble test found the device.
	Detected bool
	// MeanPeakPower is the average FFT peak power over the six
	// preamble upchirps — the reference for the OOK threshold.
	MeanPeakPower float64
	// ObservedBin is the power-weighted fractional bin where the
	// device's energy actually appeared (assigned bin plus residual
	// timing/frequency offset).
	ObservedBin float64
	// Bits is the demodulated payload section (including CRC bits).
	Bits []byte
	// Payload is the CRC-stripped payload; nil when the CRC failed.
	Payload []byte
	// CRCOK reports whether the frame check sequence matched.
	CRCOK bool
}

// FrameDecode is the result of decoding one concurrent frame.
type FrameDecode struct {
	// Start is the sample index the frame was decoded at.
	Start int
	// NoiseBinPower is the estimated per-bin noise power used for
	// detection thresholds.
	NoiseBinPower float64
	// Devices holds one entry per candidate shift, in input order.
	Devices []DeviceDecode
	// FFTs is the number of FFT operations performed — independent of
	// the number of candidate devices (the paper's receiver-complexity
	// claim, §3.1).
	FFTs int
}

// DetectedCount returns how many candidates were detected.
func (f *FrameDecode) DetectedCount() int {
	n := 0
	for _, d := range f.Devices {
		if d.Detected {
			n++
		}
	}
	return n
}

// Decoder decodes concurrent NetScatter transmissions. One dechirp and
// one (zero-padded, pruned) FFT are performed per symbol; every candidate
// device is then read off the shared spectrum. The symbol work of a
// signal decode fans out over internal/pool, so a Decoder is itself
// the concurrency and is not safe for concurrent use.
//
// The decoder is steady-state allocation-free. Everything a result
// holds — the returned FrameDecode, its Devices, Bits and Payload
// slices — and the per-candidate accumulators live in decoder-owned
// arenas that grow to the high-water mark of (candidates, payloadBits)
// and are reused afterwards. A DecodeFrame result is therefore only
// valid until the next DecodeFrame call on the same decoder; callers
// that keep payloads must copy them. Per-call scratch — the preamble
// spectra rows, the quantile buffer and the demodulator's planar FFT
// tiles — is borrowed from the dsp scratch free list for the length of
// the call and owned by no decoder, so scratch memory grows with the
// decodes in flight, not with the decoders that exist.
type Decoder struct {
	book *CodeBook
	dem  *chirp.Demodulator
	cfg  DecoderConfig

	// per-candidate accumulators, reused across calls
	sumPower  []float64
	sumWBin   []float64
	present   []int
	scanPow   []float64
	scanAt    []float64
	payCenter []int // padded payload search center per candidate; -1 = not detected

	// noisePerSym holds each preamble symbol's noise-floor estimate;
	// keeping them in per-symbol slots (instead of a running sum) lets
	// the preamble batches fill them from pool workers and still reduce
	// in a fixed order, whatever the pool's width.
	noisePerSym [PreambleUpSymbols]float64

	// preSpec holds per-preamble-symbol views into the preamble spectra
	// of the call in flight: preLoan on DecodeFrame, the leading rows of
	// the caller's arena on DecodeFrameEmit / DecodeFrameSpectra, the
	// demodulator's Spectra arena on DecodeFrameOracle. A fixed-size
	// array of reslices, so repointing it allocates nothing; it is
	// cleared once the preamble is folded, so no view outlives a loan.
	// preLoan is the preamble arena borrowed for the DecodeFrame in
	// flight (nil otherwise).
	preSpec [PreambleUpSymbols][]float64
	preLoan []float64

	// ghosts is rejectGhosts' sort scratch, one entry per detected
	// candidate.
	ghosts []ghostKey

	// plan is the window plan (WindowPlan) of the candidate set planFor,
	// rebuilt only when a call brings a different set; planCenters is
	// its build scratch.
	plan        dsp.BinPlan
	planFor     []int
	planOK      bool
	planCenters []int

	// result arenas, reused across calls
	res     FrameDecode
	devices []DeviceDecode
	powers  []float64 // candidate-major [cand][sym] payload peak powers
	bits    []byte    // candidate-major payload bit storage
	payload []byte    // candidate-major CRC-stripped payload bytes

	// preItem and payItem are the persistent pool items of a signal
	// decode (preBatch, payBatch), and the cur fields the in-flight
	// call state they read; fresh closures per DecodeFrame would put
	// heap allocations back on the steady-state path. curPre is the
	// arena the preamble batches write spectra into: borrowed rows on
	// DecodeFrame, the caller's emit arena on DecodeFrameEmit.
	// curEmitPay, non-nil only during DecodeFrameEmit, is the emit
	// arena's payload section.
	preItem, payItem                        func(batch int)
	curSig                                  []complex128
	curStart                                int
	curPayStart, curHalfIdx, curPayloadBits int
	curPre, curEmitPay                      []float64
}

// Symbol-batch sizing for the pooled decode: a pool item is a whole run
// of symbols, not a single symbol, so each item amortizes one planar
// batch pass (dechirp + pruned FFT + scan) and the pool's per-item
// overhead. The preamble is only six symbols, so its batches are small
// to keep some fan-out; payload batches are long enough for full tiles.
const (
	preBatchSymbols = 2
	payBatchSymbols = 8
)

// NewDecoder builds a decoder over a code book.
func NewDecoder(book *CodeBook, cfg DecoderConfig) *Decoder {
	if cfg.ZeroPad < 1 {
		panic("core: DecoderConfig.ZeroPad must be >= 1")
	}
	d := &Decoder{
		book: book,
		dem:  chirp.NewDemodulator(book.Params(), cfg.ZeroPad),
		cfg:  cfg,
	}
	d.preItem = d.preBatch
	d.payItem = d.payBatch
	return d
}

// The old name of Decoder and NewDecoder, kept only for nsbench, the
// benchmark module, which names them and changes only with the
// benchmark itself. The worker count is ignored: every decode fans out
// over internal/pool at GOMAXPROCS.
type ParallelDecoder = Decoder

// NewDecoder under its old name; the worker count is ignored.
func NewParallelDecoder(book *CodeBook, cfg DecoderConfig, _ int) *Decoder {
	return NewDecoder(book, cfg)
}

// Book returns the decoder's code book.
func (d *Decoder) Book() *CodeBook { return d.book }

// Demodulator exposes the underlying demodulator (for experiments that
// inspect raw spectra).
func (d *Decoder) Demodulator() *chirp.Demodulator { return d.dem }

// DecodeFrame decodes a frame of payloadBits OOK symbols starting at
// sample index start for the given candidate shifts. The signal must
// contain the full frame (PreambleSymbols + payloadBits symbols). The
// returned FrameDecode aliases decoder-owned storage and is valid until
// the next DecodeFrame call.
//
// The number crunching runs through the batched planar front-end
// (chirp.SpectraBatchInto / chirp.ScanBatch): runs of symbols are
// dechirped and transformed per pre-planned pass, and payload peak
// powers are written straight into the decoder's candidate-major power
// arena without materializing per-symbol spectra. Transforms and power
// passes only produce the candidate set's window plan (WindowPlan).
// The symbol batches are pool items writing disjoint slices of the
// arenas; everything that determines the outcome (the noise reduction,
// thresholds, CRC, ghost rejection) runs serially in a fixed order. So
// the output is the same at any GOMAXPROCS, and bit-identical to
// DecodeFrameOracle, the retained single-symbol path — a property the
// test suite enforces.
func (d *Decoder) DecodeFrame(sig []complex128, start int, shifts []int, payloadBits int) (*FrameDecode, error) {
	return d.decodeSignal(sig, start, shifts, payloadBits, nil)
}

// decodeSignal is DecodeFrame, emitting the decode's power spectra into
// emit (DecodeFrameEmit) when emit is non-nil.
func (d *Decoder) decodeSignal(sig []complex128, start int, shifts []int, payloadBits int, emit []float64) (*FrameDecode, error) {
	if err := d.begin(sig, start, shifts, payloadBits); err != nil {
		return nil, err
	}
	n := d.book.Params().N()
	d.curSig, d.curStart, d.curPayloadBits = sig, start, payloadBits
	d.curPre = d.preambleRows(emit)
	if emit != nil {
		d.curEmitPay = emit[len(d.curPre):]
	}

	// Pass 1: preamble upchirps — spectra into the preamble rows and
	// per-symbol noise estimates, one symbol batch per pool item, then
	// the noise reduction in symbol order, candidate statistics and
	// detection.
	pool.ForEach(batchCount(PreambleUpSymbols, preBatchSymbols), d.preItem)
	noise := d.reduceNoise()
	d.accumPreamble(d.preSpec[:], shifts, noise)
	d.curPre = nil
	d.releasePreamble()

	// Pass 2: payload symbols, fused — dechirp, pruned planar FFT and
	// candidate window scan in one kernel per batch, peak powers
	// landing directly in the candidate-major power arena (and each
	// symbol's power spectrum in its emit row). The two preamble
	// downchirps are skipped — they exist for packet-start estimation
	// (sync.go).
	d.preparePayload(payloadBits)
	d.curPayStart = start + PreambleSymbols*n
	d.curHalfIdx = d.trackHalf()
	pool.ForEach(batchCount(payloadBits, payBatchSymbols), d.payItem)

	d.curSig, d.curEmitPay = nil, nil
	d.finish(noise, payloadBits)
	d.rejectGhosts(d.devices)
	return &d.res, nil
}

// batchCount returns how many batch items cover n symbols.
func batchCount(n, batch int) int {
	return (n + batch - 1) / batch
}

// preBatch computes one preamble symbol batch of the decode in flight:
// spectra into the preamble rows, then the batch's per-symbol noise
// estimates.
func (d *Decoder) preBatch(batch int) {
	n := d.book.Params().N()
	lo := batch * preBatchSymbols
	hi := min(PreambleUpSymbols, lo+preBatchSymbols)
	bins := d.dem.PaddedBins()
	d.dem.SpectraBatchInto(d.curPre[lo*bins:hi*bins], d.curSig, d.curStart+lo*n, hi-lo, &d.plan)
	d.preambleNoise(lo, hi, 1)
}

// payBatch runs one payload symbol batch of the decode in flight
// through the fused dechirp+FFT+scan kernel. Batches own disjoint
// symbol columns of the candidate-major power arena (and disjoint emit
// rows), so every cell is written by exactly one item.
func (d *Decoder) payBatch(batch int) {
	lo := batch * payBatchSymbols
	hi := min(d.curPayloadBits, lo+payBatchSymbols)
	if d.curEmitPay != nil {
		d.dem.ScanBatchEmit(d.curSig, d.curPayStart, lo, hi-lo, d.payCenter, d.curHalfIdx, d.powers, d.curPayloadBits, d.curEmitPay, &d.plan)
		return
	}
	d.dem.ScanBatch(d.curSig, d.curPayStart, lo, hi-lo, d.payCenter, d.curHalfIdx, d.powers, d.curPayloadBits, &d.plan)
}

// DecodeFrameOracle is DecodeFrame through the single-symbol pipeline —
// one chirp.Demodulator.Spectrum and one window scan per symbol, the
// original per-symbol receiver. It is retained as the bit-exactness
// oracle for the batched path: both produce identical FrameDecodes for
// identical inputs, and the batch kernels are only allowed
// optimizations that preserve that equality.
func (d *Decoder) DecodeFrameOracle(sig []complex128, start int, shifts []int, payloadBits int) (*FrameDecode, error) {
	if err := d.begin(sig, start, shifts, payloadBits); err != nil {
		return nil, err
	}
	n := d.book.Params().N()

	copy(d.preSpec[:], d.dem.Spectra(sig, start, PreambleUpSymbols))
	d.preambleNoise(0, PreambleUpSymbols, 1)
	noise := d.reduceNoise()
	d.accumPreamble(d.preSpec[:], shifts, noise)
	d.releasePreamble()

	d.preparePayload(payloadBits)
	payloadStart := start + PreambleSymbols*n
	halfIdx := d.trackHalf()
	for sym := 0; sym < payloadBits; sym++ {
		spec := d.dem.Spectrum(sig[payloadStart+sym*n : payloadStart+(sym+1)*n])
		chirp.ScanPaddedCenters(spec, d.payCenter, halfIdx, d.scanPow)
		for i := range shifts {
			if d.payCenter[i] >= 0 {
				d.powers[i*payloadBits+sym] = d.scanPow[i]
			}
		}
	}

	d.finish(noise, payloadBits)
	d.rejectGhosts(d.devices)
	return &d.res, nil
}

// EmitRows returns the number of spectra rows an emitted-spectra arena
// holds for a frame of payloadBits payload symbols: the six preamble
// upchirps plus one row per payload symbol. The two preamble downchirps
// carry no decode information and are skipped, exactly as DecodeFrame
// skips them.
func EmitRows(payloadBits int) int { return PreambleUpSymbols + payloadBits }

// EmitLen returns the float64 length of an emitted-spectra arena for a
// frame of payloadBits payload symbols: EmitRows rows of PaddedBins()
// bins each, row r of symbol r at [r·PaddedBins(), (r+1)·PaddedBins()).
func (d *Decoder) EmitLen(payloadBits int) int {
	return EmitRows(payloadBits) * d.dem.PaddedBins()
}

// DecodeFrameEmit is DecodeFrame that additionally materializes the
// decode's power spectra into emit (layout per EmitLen): the six
// preamble upchirp spectra followed by one row per payload symbol. The
// decode outcome is bit-identical to DecodeFrame — the preamble rows
// are the arena the preamble batch fills, and the payload scan runs
// through chirp.ScanBatchEmit, whose scan output is untouched by the
// emission. The emitted rows are what the soft cross-AP combiner sums
// across APs before a single DecodeFrameSpectra pass.
//
// Only the bins of the candidate set's window plan (WindowPlan) are
// written. With a calibrated noise floor (NoiseFloor > 0), arena bins
// outside the plan are unspecified: they keep whatever the arena held.
// Every bin a DecodeFrameSpectra pass over the same candidate set
// reads lies inside the plan. With NoiseFloor <= 0 the plan is the
// whole row and every bin is written.
func (d *Decoder) DecodeFrameEmit(sig []complex128, start int, shifts []int, payloadBits int, emit []float64) (*FrameDecode, error) {
	if len(emit) < d.EmitLen(payloadBits) {
		return nil, fmt.Errorf("core: emit arena length %d, want at least %d", len(emit), d.EmitLen(payloadBits))
	}
	return d.decodeSignal(sig, start, shifts, payloadBits, emit)
}

// DecodeFrameSpectra decodes a frame from materialized power-spectrum
// rows instead of a signal — the soft (non-coherent) cross-AP combining
// entry point. spectra follows the DecodeFrameEmit layout for
// payloadBits (see EmitLen); typically it is the bin-wise sum of
// nSummed per-AP emitted arenas. A calibrated NoiseFloor is scaled by
// nSummed, since summing k APs' spectra sums their independent noise
// powers; the quantile fallback estimates from the summed rows
// directly.
//
// With nSummed = 1 and one AP's emitted arena, the result is
// bit-identical to DecodeFrame on that AP's signal (up to the FFTs
// count, reported as 0 here because this pass performs none): the rows
// are the exact spectra DecodeFrame scans, and windowMax over a
// materialized row is bit-identical to the fused planar scan
// (chirp.planarWindowPower's contract). The test suite enforces this
// k=1 degeneracy.
func (d *Decoder) DecodeFrameSpectra(spectra []float64, nSummed int, shifts []int, payloadBits int) (*FrameDecode, error) {
	if nSummed < 1 {
		return nil, fmt.Errorf("core: DecodeFrameSpectra nSummed %d, want >= 1", nSummed)
	}
	if len(spectra) < d.EmitLen(payloadBits) {
		return nil, fmt.Errorf("core: spectra arena length %d, want at least %d", len(spectra), d.EmitLen(payloadBits))
	}
	bins := d.dem.PaddedBins()
	d.beginFrame(0, shifts, payloadBits, 0)

	d.preambleRows(spectra)
	d.preambleNoise(0, PreambleUpSymbols, nSummed)
	noise := d.reduceNoise()
	d.accumPreamble(d.preSpec[:], shifts, noise)
	d.releasePreamble()

	d.preparePayload(payloadBits)
	halfIdx := d.trackHalf()
	for sym := 0; sym < payloadBits; sym++ {
		row := spectra[(PreambleUpSymbols+sym)*bins : (PreambleUpSymbols+sym+1)*bins]
		chirp.ScanPaddedCenters(row, d.payCenter, halfIdx, d.scanPow)
		for i := range shifts {
			if d.payCenter[i] >= 0 {
				d.powers[i*payloadBits+sym] = d.scanPow[i]
			}
		}
	}

	d.finish(noise, payloadBits)
	d.rejectGhosts(d.devices)
	return &d.res, nil
}

// begin validates the request and prepares (grows, resets) every arena
// for a frame of len(shifts) candidates and payloadBits payload symbols.
func (d *Decoder) begin(sig []complex128, start int, shifts []int, payloadBits int) error {
	n := d.book.Params().N()
	total := (PreambleSymbols + payloadBits) * n
	if start < 0 || start+total > len(sig) {
		return fmt.Errorf("core: frame [%d, %d) outside signal of %d samples", start, start+total, len(sig))
	}
	d.beginFrame(start, shifts, payloadBits, PreambleUpSymbols+payloadBits)
	return nil
}

// beginFrame is begin without the signal-bounds check — the shared
// arena setup for both the signal-driven and spectra-driven decode
// entry points. ffts is the FFT count recorded in the result: one per
// dechirped symbol on the signal paths, zero on the spectra path
// (which reuses transforms its inputs already paid for).
func (d *Decoder) beginFrame(start int, shifts []int, payloadBits, ffts int) {
	d.WindowPlan(shifts)
	d.grow(len(shifts), payloadBits)
	for i, s := range shifts {
		d.devices[i] = DeviceDecode{Shift: s}
		d.sumPower[i] = 0
		d.sumWBin[i] = 0
		d.present[i] = 0
	}
	d.res = FrameDecode{
		Start:   start,
		Devices: d.devices,
		// One dechirped FFT per preamble upchirp and per payload symbol,
		// independent of the candidate count (§3.1).
		FFTs: ffts,
	}
}

// WindowPlan returns the padded-bin window plan of a candidate set:
// the union of the circular windows [c−R, c+R] around each candidate's
// padded centre c, with R = G + trackHalf() and G = int(GuardBins·
// ZeroPad). It holds every bin a decode of the set reads: the preamble
// scan reads [c−G, c+G]; a detected candidate's payload centre is its
// power-weighted mean preamble peak position, which lies in that same
// window, so the payload scan's ±trackHalf() window lies within R of
// c. With NoiseFloor <= 0 the plan is the whole row, because the
// quantile noise estimate reads whole spectra.
//
// The plan is built once per candidate set: calls with the set the
// decoder last planned return it as is. It is valid until a call (this
// or any decode) brings a different set.
func (d *Decoder) WindowPlan(shifts []int) *dsp.BinPlan {
	if d.planOK && slices.Equal(d.planFor, shifts) {
		return &d.plan
	}
	d.planFor = append(d.planFor[:0], shifts...)
	d.planOK = true
	bins := d.dem.PaddedBins()
	r := int(d.cfg.GuardBins*float64(d.dem.ZeroPad())) + d.trackHalf()
	if d.cfg.NoiseFloor <= 0 || r < 0 {
		d.plan.SetFull(bins)
		return &d.plan
	}
	d.planCenters = d.planCenters[:0]
	for _, s := range shifts {
		d.planCenters = append(d.planCenters, d.dem.PaddedIndexOf(s))
	}
	d.plan.SetWindows(bins, d.planCenters, r)
	return &d.plan
}

// preambleRows points preSpec at the six preamble rows of arena — rows
// borrowed from the dsp scratch free list (preLoan) when arena is nil —
// and returns them. releasePreamble ends the views and the loan.
func (d *Decoder) preambleRows(arena []float64) []float64 {
	bins := d.dem.PaddedBins()
	if arena == nil {
		d.preLoan = dsp.BorrowFloat64(PreambleUpSymbols * bins)
		arena = d.preLoan
	}
	for sym := range d.preSpec {
		d.preSpec[sym] = arena[sym*bins : (sym+1)*bins]
	}
	return arena[:PreambleUpSymbols*bins]
}

// releasePreamble clears preSpec once the preamble is folded and
// returns the borrowed preamble rows, if any.
func (d *Decoder) releasePreamble() {
	clear(d.preSpec[:])
	if d.preLoan != nil {
		dsp.ReturnFloat64(d.preLoan)
		d.preLoan = nil
	}
}

// preambleNoise writes noisePerSym[lo:hi], the noise-floor estimates of
// preamble rows preSpec[lo:hi]: the calibrated floor times the nSummed
// spectra summed into each row (their independent noise powers add), or
// else each row's lower-quartile estimate, through a quantile buffer
// borrowed for the call. Calls over disjoint symbol ranges may run
// concurrently.
func (d *Decoder) preambleNoise(lo, hi, nSummed int) {
	if d.cfg.NoiseFloor > 0 {
		for sym := lo; sym < hi; sym++ {
			d.noisePerSym[sym] = d.cfg.NoiseFloor * float64(nSummed)
		}
		return
	}
	buf := dsp.BorrowFloat64(d.dem.PaddedBins())
	for sym := lo; sym < hi; sym++ {
		d.noisePerSym[sym] = noiseQuantile(buf, d.preSpec[sym])
	}
	dsp.ReturnFloat64(buf)
}

// accumPreamble folds the preamble spectra into per-candidate peak
// statistics and applies the detection rule. One ScanPeaks pass per
// symbol serves both the power accumulation and the per-symbol presence
// test (the noise estimate is already known), where the previous decoder
// walked every candidate window twice.
func (d *Decoder) accumPreamble(specs [][]float64, shifts []int, noise float64) {
	p := d.book.Params()
	presentBar := d.cfg.PresentFactor * noise
	for _, spec := range specs {
		d.dem.ScanPeaks(spec, shifts, d.cfg.GuardBins, d.scanPow, d.scanAt)
		for i, s := range shifts {
			pw := d.scanPow[i]
			d.sumPower[i] += pw
			// Accumulate the peak location weighted by power, unwrapped
			// around the assigned bin so averaging works across the
			// circular boundary.
			rel := dsp.WrapFrac(d.scanAt[i]-float64(s), p.N())
			d.sumWBin[i] += pw * rel
			if pw > presentBar {
				d.present[i]++
			}
		}
	}
	for i := range shifts {
		dev := &d.devices[i]
		dev.MeanPeakPower = d.sumPower[i] / PreambleUpSymbols
		rel := 0.0
		if d.sumPower[i] > 0 {
			rel = d.sumWBin[i] / d.sumPower[i]
		}
		dev.ObservedBin = float64(dev.Shift) + rel
		dev.Detected = dev.MeanPeakPower > d.cfg.DetectFactor*noise &&
			d.present[i] >= d.cfg.MinPresent
	}
	d.res.NoiseBinPower = noise
}

// preparePayload computes each detected candidate's padded-spectrum
// search center (undetected slots get -1 and are skipped by the scan)
// and hands out Bits storage from the bit arena.
func (d *Decoder) preparePayload(payloadBits int) {
	zp := d.dem.ZeroPad()
	bins := d.dem.PaddedBins()
	for i := range d.devices {
		dev := &d.devices[i]
		if !dev.Detected {
			d.payCenter[i] = -1
			continue
		}
		d.payCenter[i] = dsp.WrapIndex(int(math.Round(dev.ObservedBin*float64(zp))), bins)
		bits := d.bits[i*payloadBits : (i+1)*payloadBits]
		clear(bits)
		dev.Bits = bits
	}
}

// trackHalf is the payload search half-width in padded bins.
func (d *Decoder) trackHalf() int {
	return int(d.cfg.TrackBins * float64(d.dem.ZeroPad()))
}

// finish applies each detected device's OOK threshold to its collected
// payload peak powers and checks the CRC, decoding payload bytes into
// the payload arena.
func (d *Decoder) finish(noise float64, payloadBits int) {
	nBytes := payloadByteCount(payloadBits)
	for i := range d.devices {
		dev := &d.devices[i]
		if !dev.Detected {
			continue
		}
		thr := dev.MeanPeakPower * d.cfg.OOKFactor
		if guard := d.cfg.OOKNoiseGuard * noise; thr < guard {
			thr = guard
		}
		row := d.powers[i*payloadBits : (i+1)*payloadBits]
		for sym, pw := range row {
			if pw > thr {
				dev.Bits[sym] = 1
			}
		}
		if nBytes >= 0 {
			dst := d.payload[i*nBytes : (i+1)*nBytes]
			if CheckFrameBitsInto(dst, dev.Bits) {
				dev.Payload = dst
				dev.CRCOK = true
			}
		}
	}
}

// payloadByteCount returns the CRC-stripped byte count of a payload
// section, or -1 when the bit count cannot carry a framed payload.
func payloadByteCount(payloadBits int) int {
	if payloadBits < CRCBits || (payloadBits-CRCBits)%8 != 0 {
		return -1
	}
	return (payloadBits - CRCBits) / 8
}

// reduceNoise averages the per-symbol noise estimates in symbol order.
func (d *Decoder) reduceNoise() float64 {
	var sum float64
	for _, v := range d.noisePerSym {
		sum += v
	}
	return sum / PreambleUpSymbols
}

// rejectGhosts demotes side-lobe replicas: detected candidates whose
// demodulated bits exactly match a far stronger detected candidate's.
//
// Only candidates with identical bits can demote one another, so the
// detected candidates are sorted by (bits, index) and the pairwise test
// runs within each group of identical bits, members in index order.
// Every group sees the comparisons, in the order, of an all-pairs loop
// over candidates in index order (kept in the tests as the oracle) —
// a demotion cascades only within its group — at O(n log n) instead of
// O(n²) bit-row comparisons.
func (d *Decoder) rejectGhosts(devs []DeviceDecode) {
	if d.cfg.GhostFactor <= 0 {
		return
	}
	keys := d.ghosts[:0]
	for i := range devs {
		if devs[i].Detected && len(devs[i].Bits) > 0 {
			keys = append(keys, ghostKey{bits: devs[i].Bits, i: i})
		}
	}
	d.ghosts = keys
	slices.SortFunc(keys, compareGhostKeys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && bytes.Equal(keys[hi].bits, keys[lo].bits) {
			hi++
		}
		if hi-lo > 1 {
			d.rejectGroup(devs, keys[lo:hi])
		}
		lo = hi
	}
}

// rejectGroup runs the ghost test over one group of detected candidates
// with identical bits, in index order: a candidate is demoted when a
// member still detected at its turn is at least GhostFactor times
// stronger.
func (d *Decoder) rejectGroup(devs []DeviceDecode, group []ghostKey) {
	for _, w := range group {
		weak := &devs[w.i]
		for _, s := range group {
			strong := &devs[s.i]
			if s.i == w.i || !strong.Detected || strong.MeanPeakPower < d.cfg.GhostFactor*weak.MeanPeakPower {
				continue
			}
			weak.Detected = false
			weak.CRCOK = false
			weak.Payload = nil
			break
		}
	}
}

// ghostKey is a detected candidate's sort key for ghost rejection: its
// demodulated bits and its index.
type ghostKey struct {
	bits []byte
	i    int
}

func compareGhostKeys(a, b ghostKey) int {
	if c := bytes.Compare(a.bits, b.bits); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// noiseQuantile estimates the mean noise power per padded FFT bin from
// the lower quartile of a spectrum, using buf (len(buf) >= len(spec))
// as scratch. For complex Gaussian noise, bin powers are exponential
// with mean m and 25th percentile m·ln(4/3) ≈ 0.2877·m; the lower
// quartile is robust against the minority of bins occupied by device
// peaks and side lobes. The quartile uses proper rank interpolation
// (h = 0.25·(n-1)) — the previous buf[len/4] was the exact 25th
// percentile only when len(buf)%4 == 0 — and an O(n) quickselect
// instead of a full sort.
func noiseQuantile(buf []float64, spec []float64) float64 {
	buf = buf[:len(spec)]
	copy(buf, spec)
	return dsp.QuantileInPlace(buf, 0.25) / 0.28768 // ln(4/3)
}

func (d *Decoder) grow(nCand, payloadBits int) {
	if cap(d.sumPower) < nCand {
		d.sumPower = make([]float64, nCand)
		d.sumWBin = make([]float64, nCand)
		d.present = make([]int, nCand)
		d.scanPow = make([]float64, nCand)
		d.scanAt = make([]float64, nCand)
		d.payCenter = make([]int, nCand)
		d.devices = make([]DeviceDecode, nCand)
	}
	d.sumPower = d.sumPower[:nCand]
	d.sumWBin = d.sumWBin[:nCand]
	d.present = d.present[:nCand]
	d.scanPow = d.scanPow[:nCand]
	d.scanAt = d.scanAt[:nCand]
	d.payCenter = d.payCenter[:nCand]
	d.devices = d.devices[:nCand]

	if cap(d.powers) < nCand*payloadBits {
		d.powers = make([]float64, nCand*payloadBits)
		d.bits = make([]byte, nCand*payloadBits)
	}
	d.powers = d.powers[:nCand*payloadBits]
	d.bits = d.bits[:nCand*payloadBits]
	if nBytes := payloadByteCount(payloadBits); nBytes > 0 && cap(d.payload) < nCand*nBytes {
		d.payload = make([]byte, nCand*nBytes)
	}
}
