// Package air composes the signal the AP antenna actually receives: the
// superposition of every concurrent backscatter transmission, each with
// its own amplitude (link SNR), timing offset (hardware delay + time of
// flight), frequency offset (crystal + Doppler), random carrier phase
// and optional fading gain, plus unit-power thermal noise.
//
// The simulator works in normalized baseband: noise power is 1, and a
// transmission arriving with SNR s dB has amplitude sqrt(10^(s/10)).
package air

import (
	"math"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
	"netscatter/internal/pool"
	"netscatter/internal/radio"
)

// Transmission describes one device's contribution to a received frame
// as a materialized waveform. The simulator's round engine never builds
// one: it describes devices to MultiChannel as template closures. A
// Transmission serves the callers that synthesize whole frames — the
// PHY experiments, the examples and tools.
type Transmission struct {
	// Waveform is the device's ideal transmit waveform (from
	// core.Encoder or chirp.Modulator).
	Waveform []complex128
	// Delayed, if non-nil, synthesizes the waveform with a fractional
	// sample delay baked in analytically (core.Encoder's
	// FrameWaveformDelayed). Cyclically shifted chirps are not
	// bandlimited (the shift wrap is a genuine discontinuity), so
	// interpolating Waveform cannot represent a sub-sample delay
	// exactly; analytic synthesis can. When nil, sub-sample delays fall
	// back to bandlimited interpolation — fine for smooth waveforms
	// like the ASK downlink.
	Delayed func(fracSamples float64) []complex128
	// Mixed, if non-nil, synthesizes the fractionally-delayed waveform
	// with the transmission's frequency offset and complex carrier gain
	// folded into the synthesis recurrence (core.Encoder's
	// FrameBitsWaveformMixedInto) — one pass instead of synthesize +
	// rotate + scale. Takes precedence over every other waveform field.
	Mixed func(dst []complex128, fracSamples, freqOffsetHz float64, gain complex128) []complex128
	// SNRdB is the received signal-to-noise ratio at the AP over the
	// receive bandwidth (power versus the unit noise floor).
	SNRdB float64
	// DelaySec is the total arrival delay relative to the nominal
	// frame start: per-packet hardware delay variation plus round-trip
	// time of flight.
	DelaySec float64
	// FreqOffsetHz is the device's oscillator offset (plus Doppler).
	FreqOffsetHz float64
	// FadeGain is an optional extra complex channel gain (1 if zero).
	FadeGain complex128
	// FixedPhase disables the random carrier phase (for deterministic
	// spectral tests).
	FixedPhase bool
}

// hasWave reports whether the transmission contributes any samples.
func (tx *Transmission) hasWave() bool {
	return tx.Mixed != nil || tx.Delayed != nil || len(tx.Waveform) > 0
}

// splitDelay splits an arrival delay into integer sample placement and
// the fractional remainder synthesis bakes in.
func splitDelay(delaySec, sampleRate float64) (intDelay int, fracSamples float64) {
	delaySamples := delaySec * sampleRate
	intDelay = int(math.Floor(delaySamples))
	return intDelay, delaySamples - float64(intDelay)
}

// Channel assembles received frames from materialized waveforms for one
// chirp parameter set. Its synthesis scratch is reused across Receive
// calls; a Channel is not safe for concurrent use (it owns an Rng), but
// one channel per goroutine is cheap.
type Channel struct {
	// Params supplies the sample rate.
	Params chirp.Params
	// NoisePower is the thermal noise power (1 for the normalized
	// simulator; 0 disables noise for deterministic tests).
	NoisePower float64
	// Rng drives noise, phases and nothing else.
	Rng *dsp.Rand

	// Reused per-call scratch: carrier gains, channel-owned per-slot
	// synthesis buffers, the per-slot result views superposition reads
	// (results[k] aliases bufs[k] for channel-synthesized waveforms but
	// stays distinct for Delayed-path buffers, which the callback owns
	// and must never be handed to a later transmission to overwrite),
	// integer placements, plus the persistent worker closure and the
	// in-flight chunk state it reads (a fresh closure per chunk would
	// heap-allocate every round).
	gains   []complex128
	bufs    [][]complex128
	results [][]complex128
	delays  []int

	worker func(k int)
	curTxs []Transmission
	curLo  int
}

// tileSamples is the receive buffer's partition grain: 4096 complex
// samples (64 KiB) keep a MultiChannel tile's accumulate and noise
// traffic cache-resident while leaving enough tiles per frame to occupy
// the pool, and tile t of either channel's buffer draws its noise from
// the tile-indexed stream dsp.StreamAt(key, t). It is a constant of the
// output format — never derived from worker count — so the tile
// decomposition (and with it the per-tile noise streams) is identical
// at any GOMAXPROCS.
const tileSamples = 4096

// Tiles returns how many tiles partition a receive buffer of length
// samples.
func Tiles(length int) int { return (length + tileSamples - 1) / tileSamples }

// NewChannel returns a unit-noise channel.
func NewChannel(p chirp.Params, rng *dsp.Rand) *Channel {
	return &Channel{Params: p, NoisePower: 1, Rng: rng}
}

// Receive builds a received stream of length samples from the given
// transmissions, allocating the output. See ReceiveInto.
func (c *Channel) Receive(length int, txs []Transmission) []complex128 {
	return c.ReceiveInto(make([]complex128, length), txs)
}

// ReceiveInto builds the received stream into out (which is zeroed
// first) and returns it. Each transmission is scaled to its SNR,
// rotated by its frequency offset, delayed by its arrival offset
// (integer placement plus an analytic or windowed-sinc fractional
// delay, so timing offsets behave physically for both upchirps and
// downchirps), given a random carrier phase, and superposed, with
// thermal noise added on top.
//
// Synthesis runs in bounded chunks: a chunk's waveforms are built in
// parallel across the worker pool, then superposed serially in
// transmission order before the next chunk starts, so peak memory stays
// O(chunk) frames instead of O(devices).
//
// Determinism is exact: carrier phases are drawn from the channel Rng
// in transmission order before any fan-out, one more serial draw keys
// the round's noise, synthesis draws no randomness, superposition runs
// in transmission order, and each tile's noise comes from its
// tile-indexed stream (dsp.StreamAt) — so the output is bit-identical
// for a given seed at any GOMAXPROCS, and the noise is the same
// function of the Rng sequence as a one-AP MultiChannel's.
func (c *Channel) ReceiveInto(out []complex128, txs []Transmission) []complex128 {
	if cap(c.gains) < len(txs) {
		c.gains = make([]complex128, len(txs))
	}
	c.gains = c.gains[:len(txs)]
	for i := range txs {
		tx := &txs[i]
		if !tx.hasWave() {
			continue // no waveform: consumes no randomness
		}
		c.gains[i] = carrierGain(tx.SNRdB, tx.FadeGain, tx.FixedPhase, c.Rng)
	}
	noise := c.NoisePower > 0 && c.Rng != nil
	var key int64
	if noise {
		key = int64(c.Rng.Uint64())
	}

	for i := range out {
		out[i] = 0
	}
	c.superpose(out, txs)
	if noise {
		for t, lo := 0, 0; lo < len(out); t, lo = t+1, lo+tileSamples {
			hi := min(lo+tileSamples, len(out))
			st := dsp.StreamAt(key, uint64(t))
			radio.AddAWGN(&st, out[lo:hi], c.NoisePower)
		}
	}
	return out
}

// carrierGain composes one link's carrier gain: SNR amplitude, then the
// optional fade, then the random phase. MultiChannel builds its
// per-(device, AP) scales through this same function, so a scale and a
// Channel gain composed from the same inputs are the same bits.
func carrierGain(snrDB float64, fade complex128, fixedPhase bool, rng *dsp.Rand) complex128 {
	gain := complex(radio.AmplitudeForSNRdB(snrDB), 0)
	if fade != 0 {
		gain *= fade
	}
	if !fixedPhase && rng != nil {
		gain *= rng.UniformPhase()
	}
	return gain
}

// superpose synthesizes every transmission chunk by chunk into the
// channel's slot buffers (in parallel across the pool) and adds each
// chunk into out in transmission order. Slot buffers persist on the
// channel, so steady-state rounds of Mixed transmissions synthesize
// into reused storage.
func (c *Channel) superpose(out []complex128, txs []Transmission) {
	chunk := max(pool.Size()*2, 1)
	nSlots := min(chunk, len(txs))
	if len(c.bufs) < nSlots {
		c.bufs = append(c.bufs, make([][]complex128, nSlots-len(c.bufs))...)
		c.results = make([][]complex128, nSlots)
		c.delays = make([]int, nSlots)
	}
	if c.worker == nil {
		c.worker = c.synthOne
	}
	c.curTxs = txs
	for lo := 0; lo < len(txs); lo += chunk {
		hi := min(lo+chunk, len(txs))
		c.curLo = lo
		pool.ForEach(hi-lo, c.worker)
		radio.SuperposeBatch(out, c.results[:hi-lo], c.delays[:hi-lo])
		clear(c.results[:hi-lo])
	}
	c.curTxs = nil
}

// synthOne synthesizes chunk slot k of the in-flight ReceiveInto call:
// the transmission's delayed waveform, frequency-rotated and scaled
// into the channel's slot buffer, ready for serial superposition.
func (c *Channel) synthOne(k int) {
	i := c.curLo + k
	tx := &c.curTxs[i]
	fs := c.Params.SampleRate()
	intDelay, fracSamples := splitDelay(tx.DelaySec, fs)
	c.delays[k] = intDelay

	if tx.Mixed != nil {
		// Frequency offset and carrier gain are applied inside the
		// synthesis recurrence — nothing left to do here.
		c.bufs[k] = tx.Mixed(c.bufs[k][:0], fracSamples, tx.FreqOffsetHz, c.gains[i])
		c.results[k] = c.bufs[k]
		return
	}
	var buf []complex128
	owned := false // does buf belong to the channel's slot storage?
	switch {
	case tx.Delayed != nil:
		// The callback owns the returned slice; superpose from it but
		// never adopt it as slot storage a later call would overwrite.
		buf = tx.Delayed(fracSamples)
	case fracSamples > 1e-9 && len(tx.Waveform) > 0:
		buf = dsp.FractionalDelay(tx.Waveform, fracSamples)
	case len(tx.Waveform) > 0:
		buf = growComplex(c.bufs[k][:0], len(tx.Waveform))
		copy(buf, tx.Waveform)
		owned = true
	default:
		c.results[k] = nil
		return
	}
	chirp.ApplyFreqOffset(buf, tx.FreqOffsetHz, fs)
	gain := c.gains[i]
	for j := range buf {
		buf[j] *= gain
	}
	if owned {
		c.bufs[k] = buf
	}
	c.results[k] = buf
}

// growComplex returns dst extended to length m, reusing its storage
// when the capacity allows.
func growComplex(dst []complex128, m int) []complex128 {
	if cap(dst) >= m {
		return dst[:m]
	}
	return make([]complex128, m)
}

// FrameLength returns the sample count of a frame with the given total
// symbol count, plus margin symbols of tail room for delayed arrivals.
func (c *Channel) FrameLength(symbols, marginSymbols int) int {
	return (symbols + marginSymbols) * c.Params.N()
}
