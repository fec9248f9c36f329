package sim

// Multi-AP deployments: one device fleet heard by k access points.
// Every device transmits once per round; each AP receives the
// superposition over its own links (air.MultiChannel's shared-template
// fan-out), decodes the full candidate set through its own
// core.Decoder arenas, and a cross-AP aggregator merges the per-AP
// decodes — best-SNR selection with CRC preference, deduplicated by
// device — into the network-wide round outcome. A single-AP network is
// the k = 1 case: its Combined stats are its only AP's. See
// DESIGN-multiap.md.

import (
	"fmt"

	"netscatter/internal/air"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/hw"
	"netscatter/internal/mac"
	"netscatter/internal/pool"
	"netscatter/internal/radio"
	"netscatter/internal/synth"
)

// MultiRoundStats is one multi-AP round's statistics: the combined
// (post-aggregation) outcome plus each AP's standalone view of the same
// round. When the network runs with soft combining enabled
// (SetSoftCombining), Soft additionally carries the outcome of
// selecting per device over the per-AP decodes *and* the soft
// (non-coherent power-summed) combined decode — by construction never
// worse than Combined, since the combined decode only adds a candidate
// to the selection pool. With soft combining off, Soft is zero. PerAP
// aliases network-owned storage, valid until the next RunRound call.
type MultiRoundStats struct {
	Combined RoundStats
	Soft     RoundStats
	PerAP    []RoundStats
}

// SoftFramesGained returns how many CRC-valid frames soft spectral
// combining added over frame-level selection combining this round.
func (m MultiRoundStats) SoftFramesGained() int {
	return m.Soft.FramesOK - m.Combined.FramesOK
}

// DiversityFramesGained returns how many CRC-valid frames the
// aggregation added over the best single AP.
func (m MultiRoundStats) DiversityFramesGained() int {
	best := 0
	for _, s := range m.PerAP {
		if s.FramesOK > best {
			best = s.FramesOK
		}
	}
	return m.Combined.FramesOK - best
}

// MultiAPNetwork is a deployed NetScatter network heard by k APs,
// ready to run rounds — the simulator's one round engine, single-AP
// rounds included (k = 1).
type MultiAPNetwork struct {
	cfg      Config
	dep      *deploy.Deployment
	book     *core.CodeBook
	decoders []*core.Decoder
	rng      *dsp.Rand
	mch      *air.MultiChannel
	nAPs     int

	// Soft (pre-detection) cross-AP combining: when enabled, each live
	// AP's decode also emits its power spectra into a per-AP arena, the
	// arenas are summed bin-wise in AP order, and combDec decodes the
	// summed spectra as one more "virtual AP" in the selection pool.
	soft    bool
	combDec *core.Decoder

	// per-device state, parallel to dep.Devices
	slots    []int
	gains    []float64
	oscs     []radio.Oscillator
	faders   []*radio.FadingProcess
	encs     []*core.Encoder
	bestDist []float64 // distance to the strongest AP (delay anchor)

	rc multiRoundCtx
}

// multiRoundCtx is the network's reusable round arena: per-device
// transmissions and frame sections, per-AP receive buffers, per-AP
// decode results and the aggregation scratch — carved once at
// association, refilled in place each round, so steady-state rounds
// allocate nothing. The fan-out closures are built once per device;
// each round only rewrites the scalar channel fields and the arena
// contents.
type multiRoundCtx struct {
	txs      []air.MultiTransmission
	shifts   []int
	payloads [][]byte
	bits     [][]byte

	payloadArena []byte
	bitsArena    []byte
	snrArena     []float64 // per-device, per-AP effective SNRs
	sigArena     []complex128
	sigs         [][]complex128

	res   []*core.FrameDecode
	errs  []error
	sel   []int
	perAP []RoundStats

	// The round's one pool fan-out: apWorker fills and decodes one AP,
	// reading the in-flight round's device count and adversity.
	apWorker   func(a int)
	curDevices int
	curAdv     *advRound

	// Soft-combining arenas (carved by SetSoftCombining): one emitted
	// spectra arena per AP, the bin-wise sum, the per-AP results plus
	// the combined decode as a virtual AP, and its selection scratch.
	// softRes keeps the round's combined decode for inspection (tests,
	// degeneracy oracles); like all decode results it aliases decoder
	// arenas, valid until the next round.
	emitArena []float64
	emits     [][]float64
	comb      []float64
	resPlus   []*core.FrameDecode
	softSel   []int
	softRes   *core.FrameDecode

	// Adversity support: saved copies of the per-device fan-out
	// closures (restored after a round that silenced devices) and the
	// scratch transmission list used when a round carries interference
	// bursts on top of the device fleet.
	tmplFns  []func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128
	rangeFns []func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64)
	chTxs    []air.MultiTransmission
}

// NewMultiAPNetwork associates the first maxDevices of a deployment
// with a k-AP infrastructure. If the deployment does not already carry
// a k-AP placement it is placed here (deploy.PlaceAPs); pre-place when
// sharing one deployment across concurrently constructed networks.
// Slots are assigned with the power-aware allocator (strongest devices
// nearest the anchor bin) after each device runs its association-time
// power rule, both on the device's best-AP link — the
// infrastructure-side controller sees every AP's RSSI and anchors each
// device to its strongest AP.
func NewMultiAPNetwork(cfg Config, dep *deploy.Deployment, nAPs, maxDevices int, seed int64) (*MultiAPNetwork, error) {
	if cfg.Skip < 1 {
		return nil, fmt.Errorf("sim: invalid SKIP %d", cfg.Skip)
	}
	if nAPs < 1 {
		return nil, fmt.Errorf("sim: multi-AP network with %d APs", nAPs)
	}
	if maxDevices > len(dep.Devices) {
		return nil, fmt.Errorf("sim: %d devices requested, deployment has %d", maxDevices, len(dep.Devices))
	}
	if len(dep.APs) != nAPs || (len(dep.Devices) > 0 && len(dep.Devices[0].APLinks) != nAPs) {
		dep.PlaceAPs(nAPs)
	}
	book, err := buildCodeBook(cfg, maxDevices)
	if err != nil {
		return nil, err
	}
	dcfg := resolveDecoderConfig(cfg, book.Skip())
	n := &MultiAPNetwork{
		cfg:      cfg,
		dep:      dep,
		book:     book,
		decoders: make([]*core.Decoder, nAPs),
		rng:      dsp.NewRand(seed),
		nAPs:     nAPs,
		slots:    make([]int, maxDevices),
		gains:    make([]float64, maxDevices),
		oscs:     make([]radio.Oscillator, maxDevices),
		faders:   make([]*radio.FadingProcess, maxDevices),
		encs:     make([]*core.Encoder, maxDevices),
		bestDist: make([]float64, maxDevices),
	}
	for a := range n.decoders {
		n.decoders[a] = core.NewDecoder(book, dcfg)
	}
	n.mch = air.NewMultiChannel(cfg.Params, nAPs, n.rng)

	// Association-time power rule on the best-AP downlink, then
	// allocation on the resulting best-AP received strengths.
	effSNR := make([]float64, maxDevices)
	for i := 0; i < maxDevices; i++ {
		dev := &dep.Devices[i]
		best := dev.BestAP()
		n.bestDist[i] = dev.APLinks[best].Dist
		// The strongest heard query drives the device's power rule; it
		// may come from a different AP than the best-uplink anchor.
		bestDown := dev.APLinks[0].DownlinkRSSIdBm
		for _, l := range dev.APLinks[1:] {
			if l.DownlinkRSSIdBm > bestDown {
				bestDown = l.DownlinkRSSIdBm
			}
		}
		gain := 0.0
		if !cfg.DisablePowerControl {
			gain = mac.NewPowerController().AssociateGainDB(bestDown)
		}
		n.gains[i] = gain
		effSNR[i] = dev.APLinks[best].UplinkSNRdB + gain
		n.oscs[i] = radio.NewBackscatterOscillator(n.rng, 20, 50)
		if cfg.Fading {
			n.faders[i] = radio.NewFadingProcess(10, 0.97, n.rng.Fork())
		}
	}

	if cfg.PowerAwareAllocation {
		alloc := mac.NewDataOnlyAllocator(book)
		ids := make([]uint8, maxDevices)
		for i := range ids {
			ids[i] = uint8(i)
		}
		assign := alloc.AssignAll(ids, effSNR)
		for i := range ids {
			n.slots[i] = assign[uint8(i)]
		}
	} else {
		perm := n.rng.Perm(book.Slots())
		for i := 0; i < maxDevices; i++ {
			n.slots[i] = perm[i]
		}
	}
	n.initRoundCtx(maxDevices)
	return n, nil
}

// initRoundCtx carves the reusable multi-AP round arena and builds the
// per-device encoders and fan-out closures once. The per-AP effective
// SNR slices are static after association (deployment geometry plus the
// device's power setting), so RunRound only rewrites delays, offsets,
// fades and the frame contents.
func (n *MultiAPNetwork) initRoundCtx(maxDevices int) {
	payloadBytes := n.cfg.PayloadBytes
	payloadBits := payloadBytes*8 + core.CRCBits
	frameSymbols := core.PreambleSymbols + payloadBits

	rc := &n.rc
	rc.txs = make([]air.MultiTransmission, maxDevices)
	rc.shifts = make([]int, maxDevices)
	rc.payloads = make([][]byte, maxDevices)
	rc.bits = make([][]byte, maxDevices)
	rc.payloadArena = make([]byte, maxDevices*payloadBytes)
	rc.bitsArena = make([]byte, maxDevices*payloadBits)
	rc.snrArena = make([]float64, maxDevices*n.nAPs)
	length := n.mch.FrameLength(frameSymbols, 2)
	rc.sigArena = make([]complex128, n.nAPs*length)
	rc.sigs = make([][]complex128, n.nAPs)
	for a := 0; a < n.nAPs; a++ {
		rc.sigs[a] = rc.sigArena[a*length : (a+1)*length]
	}
	rc.res = make([]*core.FrameDecode, n.nAPs)
	rc.errs = make([]error, n.nAPs)
	rc.apWorker = n.apRound
	rc.sel = make([]int, maxDevices)
	rc.perAP = make([]RoundStats, n.nAPs)
	rc.tmplFns = make([]func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128, maxDevices)
	rc.rangeFns = make([]func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64), maxDevices)
	rc.chTxs = make([]air.MultiTransmission, 0, maxDevices+maxBurstsPerRound)
	for i := 0; i < maxDevices; i++ {
		rc.shifts[i] = n.book.ShiftOfSlot(n.slots[i])
		n.encs[i] = core.NewEncoder(n.cfg.Params, rc.shifts[i])
		rc.payloads[i] = rc.payloadArena[i*payloadBytes : (i+1)*payloadBytes]
		rc.bits[i] = rc.bitsArena[i*payloadBits : (i+1)*payloadBits]
		snrs := rc.snrArena[i*n.nAPs : (i+1)*n.nAPs]
		for a := 0; a < n.nAPs; a++ {
			snrs[a] = n.dep.Devices[i].APLinks[a].UplinkSNRdB + n.gains[i]
		}
		rc.txs[i].SNRdB = snrs
		rc.txs[i].MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			return n.encs[i].FrameBitsWaveformMixedTemplates(tmpl, n.rc.bits[i], frac, freqHz, gain)
		}
		rc.txs[i].MixedAddRange = func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			n.encs[i].FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, n.rc.bits[i], frac, freqHz)
		}
		rc.txs[i].MixedSchedule = func(sc *synth.FrameSchedule, at int, frac, freqHz float64) {
			n.encs[i].FrameBitsSchedule(sc, n.rc.bits[i], at, frac, freqHz)
		}
		rc.tmplFns[i] = rc.txs[i].MixedTmpl
		rc.rangeFns[i] = rc.txs[i].MixedAddRange
	}
}

// setSlot re-points device i at a new slot: slot table, decode
// candidate shift and a fresh encoder. The fan-out closures look
// n.encs[i] up per call, so they pick the replacement up on the next
// round — this is how a trajectory applies a re-association's new
// assignment.
func (n *MultiAPNetwork) setSlot(i, slot int) {
	n.slots[i] = slot
	n.rc.shifts[i] = n.book.ShiftOfSlot(slot)
	n.encs[i] = core.NewEncoder(n.cfg.Params, n.rc.shifts[i])
}

// Assignment returns device i's current code-book slot, its cyclic
// shift and its backscatter gain in dB: the association's outcome,
// which a trajectory's power rule and re-associations keep moving.
func (n *MultiAPNetwork) Assignment(i int) (slot, shift int, gainDB float64) {
	return n.slots[i], n.rc.shifts[i], n.gains[i]
}

// SetSoftCombining turns the soft (non-coherent power) cross-AP
// combining path on or off for subsequent rounds. Enabling it carves
// the per-AP emit arenas and the combined-spectra decoder on first use;
// after that warm-up the soft round stays steady-state allocation-free,
// like the rest of the round path. The combining work is strictly
// additive: per-AP decodes, selection aggregation and every random draw
// are untouched, so a network's Combined/PerAP stats are bit-identical
// with the flag on or off.
func (n *MultiAPNetwork) SetSoftCombining(on bool) {
	n.soft = on
	if !on || n.combDec != nil {
		return
	}
	n.combDec = core.NewDecoder(n.book, resolveDecoderConfig(n.cfg, n.book.Skip()))
	payloadBits := n.cfg.PayloadBytes*8 + core.CRCBits
	emitLen := n.combDec.EmitLen(payloadBits)
	rc := &n.rc
	rc.emitArena = make([]float64, n.nAPs*emitLen)
	rc.emits = make([][]float64, n.nAPs)
	for a := 0; a < n.nAPs; a++ {
		rc.emits[a] = rc.emitArena[a*emitLen : (a+1)*emitLen]
	}
	rc.comb = make([]float64, emitLen)
	rc.resPlus = make([]*core.FrameDecode, 0, n.nAPs+1)
	rc.softSel = make([]int, len(rc.sel))
}

// SoftCombining reports whether the soft combining path is enabled.
func (n *MultiAPNetwork) SoftCombining() bool { return n.soft }

// RunRound executes one concurrent round heard by every AP and returns
// the combined and per-AP statistics.
func (n *MultiAPNetwork) RunRound(nDevices int) (MultiRoundStats, error) {
	return n.runRound(nDevices, nil)
}

// advRound is one round's fault-injection state, filled by a
// Trajectory before each runRound call. A nil advRound — or one whose
// masks are all-permissive and whose overlays are zero — leaves the
// round path exactly as RunRound has always run it: every per-device
// draw below happens in the same order regardless of adversity, so an
// all-off trajectory is bit-identical to plain RunRound calls (the
// retained oracle) and a churn event on device i never perturbs the
// draws of device j.
type advRound struct {
	// active[i] false silences device i this round (asleep, skipping,
	// mid-re-association or given no payload): its closures are detached
	// so the channel adds no samples and draws no carrier phases for it,
	// and it is excluded from the scheduled-device statistics. nil means
	// all active.
	active []bool
	// frames[i], when non-nil, is the payload device i sends in place of
	// the one drawn for it (the draw still happens). nil means every
	// device sends its drawn payload.
	frames [][]byte
	// fade[i], when nonzero, multiplies onto device i's channel gain —
	// the trajectory's evolved correlated fade.
	fade []complex128
	// cfoHz[i] adds onto device i's oscillator offset — the trajectory's
	// CFO random-walk drift.
	cfoHz []float64
	// extra carries interference-burst transmissions appended after the
	// device fleet (so device carrier-phase draws are unperturbed).
	extra []air.MultiTransmission
	// apAlive[a] false drops AP a this round: its buffer still fills
	// (the channel's draw sequence is AP-count-shaped, not mask-shaped)
	// but it decodes nothing and contributes nothing to aggregation.
	// nil means all alive.
	apAlive []bool
}

// maxBurstsPerRound bounds the interference transmissions a single
// round may carry (the burst scheduler draws at most one event per
// round; the chTxs arena is sized for it).
const maxBurstsPerRound = 1

// runRound executes one round with optional fault injection. With adv
// == nil this is exactly the historical RunRound path.
func (n *MultiAPNetwork) runRound(nDevices int, adv *advRound) (MultiRoundStats, error) {
	if nDevices > len(n.slots) {
		return MultiRoundStats{}, fmt.Errorf("sim: round with %d devices, network has %d", nDevices, len(n.slots))
	}
	if n.holdsPool() {
		pool.Hold()
		defer pool.Release()
	}
	p := n.cfg.Params
	payloadBits := n.cfg.PayloadBytes*8 + core.CRCBits

	// Refill the round arena in place, drawing per device: payload
	// bytes, fade, delay, oscillator — with the per-(device, AP)
	// carrier phases drawn later inside the channel.
	// Silenced devices still consume their draws (payload, fade, delay,
	// offset) so adversity never shifts another device's randomness,
	// and a caller's payload overwrites the drawn bytes for the same
	// reason.
	rc := &n.rc
	txs := rc.txs[:nDevices]
	var frames [][]byte
	if adv != nil {
		frames = adv.frames
	}
	for i := 0; i < nDevices; i++ {
		n.rng.FillBytes(rc.payloads[i])
		if frames != nil && frames[i] != nil {
			copy(rc.payloads[i], frames[i])
		}
		core.FrameBitsInto(rc.bits[i], rc.payloads[i])
		var fade complex128
		if n.faders[i] != nil {
			fade = n.faders[i].Step()
		}
		txs[i].DelaySec = n.cfg.DelayModel.Draw(n.rng) +
			hw.PropagationDelaySec(n.bestDist[i])
		txs[i].FreqOffsetHz = n.oscs[i].PacketOffsetHz(n.rng)
		txs[i].FadeGain = fade
	}

	scheduled := nDevices
	silenced := false
	if adv != nil {
		for i := 0; i < nDevices; i++ {
			if adv.active != nil && !adv.active[i] {
				// Detach the closures: a non-contributing transmission
				// adds no samples and draws no carrier phases.
				txs[i].MixedTmpl, txs[i].MixedAddRange = nil, nil
				silenced = true
				scheduled--
				continue
			}
			if adv.fade != nil && adv.fade[i] != 0 {
				if txs[i].FadeGain == 0 {
					txs[i].FadeGain = adv.fade[i]
				} else {
					txs[i].FadeGain *= adv.fade[i]
				}
			}
			if adv.cfoHz != nil {
				txs[i].FreqOffsetHz += adv.cfoHz[i]
			}
		}
	}

	chTxs := txs
	if adv != nil && len(adv.extra) > 0 {
		// Bursts ride after the fleet so per-(device, AP) phase draws
		// stay in fleet order; the burst's own phases draw last.
		rc.chTxs = append(rc.chTxs[:0], txs...)
		rc.chTxs = append(rc.chTxs, adv.extra...)
		chTxs = rc.chTxs
	}
	// The channel's serial draws and template fan-out, then one pool
	// item per AP that fills the AP's buffer and decodes it. Everything
	// after the fan-out runs serially in AP order.
	n.mch.Prepare(rc.sigs, chTxs)
	rc.curDevices, rc.curAdv = nDevices, adv
	pool.ForEach(n.nAPs, rc.apWorker)
	rc.curAdv = nil
	if silenced {
		for i := 0; i < nDevices; i++ {
			if !adv.active[i] {
				txs[i].MixedTmpl = rc.tmplFns[i]
				txs[i].MixedAddRange = rc.rangeFns[i]
			}
		}
	}
	for _, err := range rc.errs {
		if err != nil {
			return MultiRoundStats{}, err
		}
	}

	// Soft combining: sum the live APs' emitted power spectra bin-wise
	// (serial, in AP order — bit-identical at any GOMAXPROCS) and decode
	// the sum as one more candidate decode. Dead APs' arenas hold stale
	// spectra and are excluded, exactly like their frame decodes. Only
	// the candidate set's window plan is summed: the per-AP decoders
	// (same config, same set) emitted exactly those bins, and they are
	// every bin the combined decode reads.
	rc.softRes = nil
	if n.soft {
		plan := n.combDec.WindowPlan(rc.shifts[:nDevices])
		nSummed := 0
		for a := 0; a < n.nAPs; a++ {
			if rc.res[a] == nil {
				continue
			}
			if nSummed == 0 {
				plan.CopyRows(rc.comb, rc.emits[a])
			} else {
				plan.AddRows(rc.comb, rc.emits[a])
			}
			nSummed++
		}
		if nSummed > 0 {
			res, err := n.combDec.DecodeFrameSpectra(rc.comb, nSummed, rc.shifts[:nDevices], payloadBits)
			if err != nil {
				return MultiRoundStats{}, err
			}
			rc.softRes = res
		}
	}

	base := RoundStats{
		Devices:       scheduled,
		ScheduledBits: scheduled * payloadBits,
		RoundSecs:     n.cfg.Timing.NetScatterRoundSeconds(p, n.cfg.Query, n.cfg.PayloadBytes),
		PayloadSec:    float64(payloadBits) * p.SymbolPeriod(),
	}
	for a := 0; a < n.nAPs; a++ {
		st := &rc.perAP[a]
		*st = base
		if rc.res[a] == nil {
			continue
		}
		for i := range rc.res[a].Devices {
			if adv != nil && adv.active != nil && !adv.active[i] {
				continue // spurious detection of a silent device
			}
			tallyDevice(st, &rc.res[a].Devices[i], rc.bits[i], rc.payloads[i], payloadBits)
		}
	}

	// With every AP dead all res entries are nil, every sel lands at -1,
	// and the combined stats stay at base — a well-formed all-lost round.
	AggregateDecodes(rc.sel[:nDevices], rc.res)
	combined := base
	for i, a := range rc.sel[:nDevices] {
		if a < 0 {
			continue
		}
		if adv != nil && adv.active != nil && !adv.active[i] {
			continue
		}
		tallyDevice(&combined, &rc.res[a].Devices[i], rc.bits[i], rc.payloads[i], payloadBits)
	}

	// Soft outcome: the same CRC-preferring selection, over the per-AP
	// decodes plus the combined-spectra decode as a virtual AP at index
	// nAPs. Because selection only gains a candidate, the soft stats are
	// structurally no worse than the selection-combining stats; the
	// diversity gain is every device only the *sum* of the APs can hear.
	var soft RoundStats
	if n.soft {
		soft = base
		rc.resPlus = append(rc.resPlus[:0], rc.res...)
		rc.resPlus = append(rc.resPlus, rc.softRes)
		AggregateDecodes(rc.softSel[:nDevices], rc.resPlus)
		for i, a := range rc.softSel[:nDevices] {
			if a < 0 {
				continue
			}
			if adv != nil && adv.active != nil && !adv.active[i] {
				continue
			}
			tallyDevice(&soft, &rc.resPlus[a].Devices[i], rc.bits[i], rc.payloads[i], payloadBits)
		}
	}
	return MultiRoundStats{Combined: combined, Soft: soft, PerAP: rc.perAP}, nil
}

// holdsPool reports whether a round holds the pool (pool.Hold) from
// start to end: when its receive buffers span more than one tile. Such
// a round fans out its templates, tiles, noise groups and decode steps
// one after another, and the hold keeps the pool's helpers polling
// between them instead of parking and being woken at each. A one-tile
// round — every serve-fleet tenant — has too little work per fan-out to
// repay the polling, and rounds like it run side by side in the
// service, so it leaves its helpers parked between jobs.
func (n *MultiAPNetwork) holdsPool() bool { return air.Tiles(len(n.rc.sigs[0])) > 1 }

// apRound is AP a's item of a round's fan-out: fill the AP's receive
// buffer, then decode it into the AP's own decoder (emitting its
// spectra when soft combining is on). A dead AP's buffer still fills —
// the channel's work is AP-count-shaped — but it decodes nothing and
// its result stays nil. Items share nothing in flight: each writes its
// own buffer, decoder, emit arena and result slots.
func (n *MultiAPNetwork) apRound(a int) {
	rc := &n.rc
	n.mch.FillAP(a)
	rc.res[a], rc.errs[a] = nil, nil
	if adv := rc.curAdv; adv != nil && adv.apAlive != nil && !adv.apAlive[a] {
		return
	}
	shifts := rc.shifts[:rc.curDevices]
	payloadBits := n.cfg.PayloadBytes*8 + core.CRCBits
	if n.soft {
		rc.res[a], rc.errs[a] = n.decoders[a].DecodeFrameEmit(rc.sigs[a], 0, shifts, payloadBits, rc.emits[a])
	} else {
		rc.res[a], rc.errs[a] = n.decoders[a].DecodeFrame(rc.sigs[a], 0, shifts, payloadBits)
	}
}

// BestDecode returns the index of the AP whose decode of candidate dev
// should represent it network-wide: CRC-valid decodes outrank
// detected-only ones, stronger observed preamble power (MeanPeakPower,
// the receiver's SNR proxy) breaks ties within a class, and the lower
// AP index breaks exact power ties so the choice is deterministic.
// Returns -1 when no AP detected the device. APs whose result is nil
// or too short (an AP that decoded a smaller candidate set) contribute
// nothing.
func BestDecode(perAP []*core.FrameDecode, dev int) int {
	best := -1
	for a, res := range perAP {
		if res == nil || dev >= len(res.Devices) {
			continue
		}
		d := &res.Devices[dev]
		if !d.Detected {
			continue
		}
		if best < 0 {
			best = a
			continue
		}
		b := &perAP[best].Devices[dev]
		if d.CRCOK != b.CRCOK {
			if d.CRCOK {
				best = a
			}
			continue
		}
		if d.MeanPeakPower > b.MeanPeakPower {
			best = a
		}
	}
	return best
}

// AggregateDecodes merges per-AP decodes of one candidate set: sel[i]
// receives BestDecode(perAP, i) — the representing AP for candidate i,
// -1 if nobody heard it. Every device decoded by at least one AP is
// represented exactly once (no drops, no double counting; the fuzz
// target pins both). Returns the number of represented devices.
func AggregateDecodes(sel []int, perAP []*core.FrameDecode) int {
	detected := 0
	for i := range sel {
		sel[i] = BestDecode(perAP, i)
		if sel[i] >= 0 {
			detected++
		}
	}
	return detected
}
