// Multi-AP fan-out: one shared deployment heard by k access points.
//
// Every device transmits one waveform; each AP receives it over its own
// link (its own SNR, fade composition, carrier phase) and adds its own
// thermal noise. A frame is two mixed template symbols plus
// constant-scaled copies, so the per-AP variation reduces to a complex
// scale on the templates — the frequency offset (the device's crystal,
// shared by every AP) and the fractional delay stay inside the one base
// synthesis. With k = 1 this is the simulator's single-AP round.
//
// Per-AP timing uses the narrowband model: time-of-flight differences
// between APs on an office floor are well under a sample, so they
// appear as per-(device, AP) carrier phase — folded into the random
// phase each link draws — while the sample-grid placement is shared.
// See DESIGN-multiap.md.

package air

import (
	"fmt"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
	"netscatter/internal/pool"
	"netscatter/internal/radio"
	"netscatter/internal/synth"
)

// MultiTransmission describes one device's contribution as heard by
// every AP of a multi-AP receive, as template closures: the frame is
// never materialized. MixedTmpl is called exactly once per receive,
// with unit gain; per-AP gains are applied by scaling the resulting
// templates (ScaleTemplate), and every receive-buffer tile accumulates
// its clip of the frame from those templates.
type MultiTransmission struct {
	// MixedTmpl synthesizes the device's mixed template symbols with
	// the fractional delay, frequency offset and given carrier gain
	// folded in (core.Encoder's FrameBitsWaveformMixedTemplates).
	MixedTmpl func(tmpl []complex128, fracSamples, freqOffsetHz float64, gain complex128) []complex128
	// MixedAddRange accumulates the [lo, hi) clip of the placed frame
	// into the receive buffer from a template set
	// (FrameBitsWaveformMixedAddRange).
	MixedAddRange func(out []complex128, lo, hi, at int, tmpl []complex128, fracSamples, freqOffsetHz float64)
	// MixedSchedule, when set, fills sc (channel-owned storage, reused
	// across receives) with the schedule of the frame MixedAddRange
	// adds at sample offset at (core.Encoder's FrameBitsSchedule). The
	// channel calls it once per receive in the per-device pass and then
	// accumulates the device from the schedule, fused with its
	// scheduled neighbours (synth.AccumulateFrames), instead of calling
	// MixedAddRange per tile — the same bits, since the schedule is the
	// plan MixedAddRange walks. Nil keeps the MixedAddRange path.
	MixedSchedule func(sc *synth.FrameSchedule, at int, fracSamples, freqOffsetHz float64)
	// SNRdB holds the per-AP received SNRs; len(SNRdB) must cover the
	// channel's AP count for a contributing transmission.
	SNRdB []float64
	// DelaySec is the shared arrival delay (hardware delay plus time of
	// flight to the anchor AP); per-AP flight-time differences are
	// sub-sample and ride the per-AP carrier phases.
	DelaySec float64
	// FreqOffsetHz is the device's oscillator offset.
	FreqOffsetHz float64
	// FadeGain is an optional extra complex gain common to all APs
	// (1 if zero).
	FadeGain complex128
	// FixedPhase disables the random per-(device, AP) carrier phases
	// (for deterministic tests).
	FixedPhase bool
}

// contributes reports whether the transmission adds any samples.
func (tx *MultiTransmission) contributes() bool {
	return tx.MixedTmpl != nil && tx.MixedAddRange != nil
}

// ScaleTemplate writes src scaled by c into dst (grown from its
// capacity as needed) and returns it. This is the whole per-AP
// synthesis cost of the multi-AP fan-out.
func ScaleTemplate(dst, src []complex128, c complex128) []complex128 {
	dst = growComplex(dst[:0], len(src))
	dsp.ScaleInto(dst, src, c)
	return dst
}

// MultiChannel assembles the k received streams of a shared deployment
// heard by k APs, synthesizing each device's template symbols once and
// fanning them out to every AP's buffer with per-AP gain and per-AP
// tile-indexed noise streams.
//
// Determinism contract: the per-(device, AP) scales are drawn from the
// channel Rng serially in (device, AP) order, one more serial draw keys
// the round's noise, and AP a's tile t draws its noise from
// dsp.StreamAt(key^a, t). Signal accumulation within a tile runs in
// transmission order. Output is therefore bit-identical for a given
// seed at any GOMAXPROCS, and AP a's buffer is bit-identical to a
// serial whole-buffer pass — each device's unit-gain templates scaled
// by its AP-a draw and added over the whole buffer in transmission
// order, then the key^a tile noise — the test-enforced oracle.
//
// A tile adds runs of consecutive scheduled transmissions (MixedSchedule
// set) in one fused pass each, and every other transmission through
// its MixedAddRange closure, in transmission order; the fused pass adds
// each sample's products in the same order, so both routes give the
// same bits.
//
// Like Channel, a MultiChannel reuses its arenas across receives and is
// not safe for concurrent use, except for FillAP calls on distinct APs
// between a Prepare and the next.
type MultiChannel struct {
	// Params supplies the sample rate.
	Params chirp.Params
	// NoisePower is the per-AP thermal noise power (1 normalized,
	// 0 disables noise).
	NoisePower float64
	// Rng drives the per-(device, AP) phases and the noise key.
	Rng *dsp.Rand

	nAPs int

	// Reused per-call state: per-(device, AP) scales, the shared base
	// template arena (one 2N slot per device, synthesized once), the
	// per-AP scaled template arena (k·nTx slots), placements, the
	// per-device frame schedules, and the persistent workers with the
	// in-flight call state they read.
	scales    []complex128
	baseArena []complex128
	base      [][]complex128
	apArena   []complex128
	apTmpls   [][]complex128 // apTmpls[a*nTx+i]: device i's templates at AP a
	txAt      []int
	txFrac    []float64
	scheds    []synth.FrameSchedule // device i's, filled when it has MixedSchedule
	syn       *synth.Synthesizer

	tmplWorker func(i int)
	fillWorker func(a int)
	fills      []apFill // fills[a]: AP a's persistent tile and noise workers
	curTxs     []MultiTransmission
	curOuts    [][]complex128
	curKey     int64
	curNoise   bool
	nTiles     int
}

// apFill holds one AP's persistent fill workers, built once with the
// channel: concurrent FillAP calls for different APs then share no
// in-flight state, and a receive allocates no closure.
type apFill struct {
	tile  func(t int)
	noise func(g int)
}

// NewMultiChannel returns a unit-noise channel fanning out to nAPs
// receive buffers.
func NewMultiChannel(p chirp.Params, nAPs int, rng *dsp.Rand) *MultiChannel {
	if nAPs < 1 {
		panic(fmt.Sprintf("air: MultiChannel with %d APs", nAPs))
	}
	mc := &MultiChannel{Params: p, NoisePower: 1, Rng: rng, nAPs: nAPs}
	mc.tmplWorker = mc.tmplOne
	mc.fillWorker = mc.FillAP
	mc.fills = make([]apFill, nAPs)
	for a := range mc.fills {
		mc.fills[a] = apFill{
			tile:  func(t int) { mc.tileOne(a, t) },
			noise: func(g int) { mc.noiseOne(a, g) },
		}
	}
	return mc
}

// APs returns the channel's AP count.
func (mc *MultiChannel) APs() int { return mc.nAPs }

// Receive builds the k received streams of length samples each,
// allocating the outputs. See ReceiveInto.
func (mc *MultiChannel) Receive(length int, txs []MultiTransmission) [][]complex128 {
	outs := make([][]complex128, mc.nAPs)
	for a := range outs {
		outs[a] = make([]complex128, length)
	}
	return mc.ReceiveInto(outs, txs)
}

// ReceiveInto builds the k per-AP received streams into outs (one
// equal-length buffer per AP, each zeroed and refilled) and returns
// outs: Prepare, then one pool item per AP running FillAP.
func (mc *MultiChannel) ReceiveInto(outs [][]complex128, txs []MultiTransmission) [][]complex128 {
	mc.Prepare(outs, txs)
	pool.ForEach(mc.nAPs, mc.fillWorker)
	mc.curTxs = nil
	mc.curOuts = nil
	return outs
}

// Prepare runs the shared phases of a receive into outs (one
// equal-length buffer per AP): the serial per-(device, AP) scale draws
// and the round's noise key, then the template fan-out — synthesis once
// per device across the worker pool, the per-AP templates being scaled
// copies. It leaves each buffer to FillAP. The channel keeps outs and
// txs until the next Prepare; between the two, the k FillAP calls are
// independent and may run concurrently, each on its own AP.
func (mc *MultiChannel) Prepare(outs [][]complex128, txs []MultiTransmission) {
	k := mc.nAPs
	if len(outs) != k {
		panic(fmt.Sprintf("air: receive into %d buffers for %d APs", len(outs), k))
	}
	for a := 1; a < k; a++ {
		if len(outs[a]) != len(outs[0]) {
			panic(fmt.Sprintf("air: per-AP buffer lengths differ: %d vs %d", len(outs[a]), len(outs[0])))
		}
	}

	nTx := len(txs)
	n2 := 2 * mc.Params.N()
	if cap(mc.txAt) < nTx {
		mc.txAt = make([]int, nTx)
		mc.txFrac = make([]float64, nTx)
		mc.scheds = make([]synth.FrameSchedule, nTx)
		mc.base = make([][]complex128, nTx)
		mc.scales = make([]complex128, nTx*k)
	}
	if cap(mc.baseArena) < nTx*n2 {
		mc.baseArena = make([]complex128, nTx*n2)
	}
	if cap(mc.apArena) < k*nTx*n2 {
		mc.apArena = make([]complex128, k*nTx*n2)
		mc.apTmpls = make([][]complex128, k*nTx)
	}
	mc.txAt = mc.txAt[:nTx]
	mc.txFrac = mc.txFrac[:nTx]
	mc.scheds = mc.scheds[:nTx]
	mc.base = mc.base[:nTx]
	mc.scales = mc.scales[:nTx*k]
	mc.apTmpls = mc.apTmpls[:k*nTx]

	// Serial phase: per-(device, AP) scales in (device, AP) order —
	// the same carrier-gain composition Channel uses per transmission —
	// then the round's noise key. Everything after this point draws no
	// randomness, so the fan-outs cannot perturb the sequence.
	fs := mc.Params.SampleRate()
	for i := range txs {
		tx := &txs[i]
		mc.txAt[i], mc.txFrac[i] = splitDelay(tx.DelaySec, fs)
		mc.base[i] = mc.baseArena[i*n2 : i*n2 : (i+1)*n2]
		if tx.contributes() && len(tx.SNRdB) < k {
			panic(fmt.Sprintf("air: transmission %d has %d per-AP SNRs for %d APs", i, len(tx.SNRdB), k))
		}
		for a := 0; a < k; a++ {
			slot := a*nTx + i
			mc.apTmpls[slot] = mc.apArena[slot*n2 : slot*n2 : (slot+1)*n2]
			if !tx.contributes() {
				continue // consumes no randomness, like Channel
			}
			mc.scales[i*k+a] = carrierGain(tx.SNRdB[a], tx.FadeGain, tx.FixedPhase, mc.Rng)
		}
	}
	mc.curNoise = mc.NoisePower > 0 && mc.Rng != nil
	mc.curKey = 0
	if mc.curNoise {
		mc.curKey = int64(mc.Rng.Uint64())
	}

	mc.syn = synth.For(mc.Params)
	mc.curTxs = txs
	mc.curOuts = outs
	mc.nTiles = (len(outs[0]) + tileSamples - 1) / tileSamples
	pool.ForEach(nTx, mc.tmplWorker)
}

// FillAP builds AP a's buffer of the prepared receive in two fan-outs
// over its own tiles: each tile zeroed and accumulating every device's
// overlap in transmission order, then the noise, in groups of up to
// dsp.ZigLanes of the AP's tiles, each adding their tile-indexed
// streams through one lane fill (radio.AddAWGNLanes). Inside a pool
// item — one per AP, as ReceiveInto and the multi-AP round run it —
// the two fan-outs take whatever pool tokens the outer one left, and
// run inline when it holds them all.
func (mc *MultiChannel) FillAP(a int) {
	f := &mc.fills[a]
	pool.ForEach(mc.nTiles, f.tile)
	if mc.curNoise {
		pool.ForEach(mc.noiseGroups(), f.noise)
	}
}

// noiseGroups is the number of noise groups over one AP's tiles: as few
// as hold at most dsp.ZigLanes tiles each.
func (mc *MultiChannel) noiseGroups() int {
	return (mc.nTiles + dsp.ZigLanes - 1) / dsp.ZigLanes
}

// tmplOne synthesizes device i's base template symbols (fractional
// delay and frequency offset folded in, unit gain) — the round's only
// synthesis call for the device — scales the k per-AP copies, and
// fills the device's frame schedule when it has one.
func (mc *MultiChannel) tmplOne(i int) {
	tx := &mc.curTxs[i]
	if !tx.contributes() {
		return
	}
	k := mc.nAPs
	nTx := len(mc.curTxs)
	if tx.MixedSchedule != nil {
		tx.MixedSchedule(&mc.scheds[i], mc.txAt[i], mc.txFrac[i], tx.FreqOffsetHz)
	}
	mc.base[i] = tx.MixedTmpl(mc.base[i], mc.txFrac[i], tx.FreqOffsetHz, 1)
	for a := 0; a < k; a++ {
		slot := a*nTx + i
		mc.apTmpls[slot] = ScaleTemplate(mc.apTmpls[slot], mc.base[i], mc.scales[i*k+a])
	}
}

// tileOne builds tile t of AP a's buffer in the in-flight receive:
// zero the tile and accumulate every device's overlap in transmission
// order from that AP's scaled templates; noiseOne adds the noise
// afterwards. Consecutive scheduled devices are gathered into runs of
// up to synth.FuseRun and added by one fused pass per run; a
// closure-path transmission first flushes the pending run, so per
// sample the adds stay in transmission order.
func (mc *MultiChannel) tileOne(a, t int) {
	out := mc.curOuts[a]
	lo := t * tileSamples
	hi := min(lo+tileSamples, len(out))
	w := out[lo:hi]
	for i := range w {
		w[i] = 0
	}
	nTx := len(mc.curTxs)
	var run [synth.FuseRun]synth.FusedFrame
	m := 0
	for i := range mc.curTxs {
		tx := &mc.curTxs[i]
		if !tx.contributes() {
			continue
		}
		tmpl := mc.apTmpls[a*nTx+i]
		if tx.MixedSchedule != nil {
			run[m] = synth.FusedFrame{Sched: &mc.scheds[i], Tmpl: tmpl}
			if m++; m == len(run) {
				mc.syn.AccumulateFrames(out, lo, hi, run[:m])
				m = 0
			}
			continue
		}
		if m > 0 {
			mc.syn.AccumulateFrames(out, lo, hi, run[:m])
			m = 0
		}
		tx.MixedAddRange(out, lo, hi, mc.txAt[i], tmpl, mc.txFrac[i], tx.FreqOffsetHz)
	}
	if m > 0 {
		mc.syn.AccumulateFrames(out, lo, hi, run[:m])
	}
}

// noiseOne adds the noise of AP a's group g in the in-flight receive:
// the AP's tiles [g·T/G, (g+1)·T/G) of its T tiles, split evenly over
// G = noiseGroups() groups so none holds more than dsp.ZigLanes. Tile t
// draws from dsp.StreamAt(key^a, t) — AP 0's streams are exactly
// Channel's for the same key — and radio.AddAWGNLanes adds to each tile
// exactly the noise radio.AddAWGN would, so the grouping never moves a
// bit.
func (mc *MultiChannel) noiseOne(a, g int) {
	out := mc.curOuts[a]
	groups := mc.noiseGroups()
	lo, hi := g*mc.nTiles/groups, (g+1)*mc.nTiles/groups
	var streams [dsp.ZigLanes]dsp.Stream
	var sts [dsp.ZigLanes]*dsp.Stream
	var sigs [dsp.ZigLanes][]complex128
	for t := lo; t < hi; t++ {
		l := t - lo
		streams[l] = dsp.StreamAt(mc.curKey^int64(a), uint64(t))
		sts[l] = &streams[l]
		sigs[l] = out[t*tileSamples : min((t+1)*tileSamples, len(out))]
	}
	radio.AddAWGNLanes(sts[:hi-lo], sigs[:hi-lo], mc.NoisePower)
}

// FrameLength returns the sample count of a frame with the given total
// symbol count plus margin symbols of tail room.
func (mc *MultiChannel) FrameLength(symbols, marginSymbols int) int {
	return (symbols + marginSymbols) * mc.Params.N()
}
