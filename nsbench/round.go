package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/hw"
	"netscatter/internal/mac"
	"netscatter/internal/radio"
	"netscatter/internal/serve"
	"netscatter/internal/sim"
)

// The steady round workloads: one world built the way the service
// builds a tenant, stepped back to back by one caller.

type roundSpec struct {
	name    string
	devices int
	aps     int
	soft    bool
	salt    uint64 // deployment-seed derivation salt
}

var (
	denseSpec = roundSpec{name: "dense-256", devices: 256, aps: 1, salt: 1}
	softSpec  = roundSpec{name: "soft-16x4", devices: 16, aps: 4, soft: true, salt: 2}
)

func runDense(rc runConfig, r *result) error { return runRounds(rc, r, denseSpec) }
func runSoft(rc runConfig, r *result) error  { return runRounds(rc, r, softSpec) }

// config is the workload's deployment config for a deployment seed.
func (s roundSpec) config(depSeed int64) serve.DeploymentConfig {
	return withDefaults(serve.DeploymentConfig{
		Name: s.name, Devices: s.devices, APs: s.aps, SoftCombining: s.soft, Seed: depSeed,
	})
}

const (
	setupReps   = 31 // set-ups per run; setup_s is their median
	crossRounds = 8  // untimed warm-up rounds, cross-checked against serve.RunLocal
	allocRounds = 8  // traced rounds that sample per-call allocations
)

// roundPhase is one timed run of back-to-back rounds.
type roundPhase struct {
	durs   []time.Duration
	cpu    time.Duration
	allocs uint64
	failed int
}

// stepRounds runs RunRound back to back for d (at least one round),
// folding every round into acc.
func stepRounds(net *sim.MultiAPNetwork, devices int, acc *sim.Accumulator, d time.Duration) roundPhase {
	ph := roundPhase{durs: make([]time.Duration, 0, 1<<14)}
	cpu0, m0 := processCPU(), mallocs()
	t0 := time.Now()
	deadline := t0.Add(d)
	for {
		ts := time.Now()
		st, err := net.RunRound(devices)
		te := time.Now()
		if err != nil {
			ph.failed++
			break
		}
		ph.durs = append(ph.durs, te.Sub(ts))
		acc.AddMulti(st, net.SoftCombining())
		if te.After(deadline) {
			break
		}
	}
	ph.cpu = processCPU() - cpu0
	ph.allocs = mallocs() - m0
	return ph
}

func runRounds(rc runConfig, r *result, spec roundSpec) error {
	ref, canon, err := loadReference(spec.name)
	if err != nil {
		return err
	}
	cfg := spec.config(deriveSeed(rc.Seed, spec.salt))

	// Set-up: build the world setupReps times, keep the last.
	var net *sim.MultiAPNetwork
	setup, err := timeSetup(setupReps, func() error {
		net, err = buildNet(cfg)
		return err
	})
	if err != nil {
		return err
	}

	var acc sim.Accumulator
	for i := 0; i < crossRounds; i++ {
		st, err := net.RunRound(cfg.Devices)
		if err != nil {
			return err
		}
		acc.AddMulti(st, net.SoftCombining())
	}
	cross := totalsOf(acc.Snapshot())

	timed := time.Duration(rc.Seconds) * time.Second
	if rc.Trace {
		timed /= 2 // the other half runs the composed, traced round
	}
	ph := stepRounds(net, cfg.Devices, &acc, timed)
	rounds := len(ph.durs)
	r.Attempted += rounds + ph.failed
	r.Failed += ph.failed
	if rounds == 0 {
		return fmt.Errorf("no round completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	roundMS := summarize(durationsMS(ph.durs))
	r.add("setup_s", "s", median(setup), len(setup))
	// The median over one-second windows: a burst of host noise moves
	// it less than the whole-run mean does.
	r.add("rounds_per_s", "1/s", median(windowRates(ph.durs, time.Second)), rounds)
	r.addSummary("latency_p50_ms", "ms", roundMS, false)
	r.add("cpu_ms_per_round", "ms", ms(ph.cpu)/float64(rounds), rounds)
	r.add("peak_rss_mb", "MB", rss, 0)
	r.addSummary("round_p50_ms", "ms", roundMS, false)
	r.addSummary("round_p99_ms", "ms", roundMS, true)
	r.add("allocs_per_round", "count", float64(ph.allocs)/float64(rounds), rounds)
	seeded := totalsOf(acc.Snapshot())
	r.add("per", "share", seeded.per(), int(seeded.DeviceRounds))

	// Output checks: the benchmark's world against the service's own
	// construction, the seeded run's plausibility, the canonical run
	// against the committed reference.
	local, err := serve.RunLocal(cfg, crossRounds)
	if err != nil {
		return err
	}
	r.check(sameTotals("world-matches-serve.RunLocal", cross, totalsOf(local)))
	r.check(plausible(seeded, canon, ref))
	canonNet, err := buildNet(spec.config(1))
	if err != nil {
		return err
	}
	var canonAcc sim.Accumulator
	for i := 0; i < canon.Rounds; i++ {
		st, err := canonNet.RunRound(spec.devices)
		if err != nil {
			return err
		}
		canonAcc.AddMulti(st, canonNet.SoftCombining())
	}
	r.check(compareTotals("reference", totalsOf(canonAcc.Snapshot()), canon, ref))
	r.Attempted += 3

	if rc.Trace {
		if err := traceRounds(rc, r, cfg, net, &acc, ph); err != nil {
			return err
		}
	}
	r.add("failed_share", "share", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	return nil
}

// traceRounds runs the composed round — the same world built from the
// layers' public calls, with a span around each call — for the second
// half of the run, checks it reproduces the untraced totals exactly,
// and reports the per-layer metrics.
func traceRounds(rc runConfig, r *result, cfg serve.DeploymentConfig, net *sim.MultiAPNetwork, acc *sim.Accumulator, base roundPhase) error {
	// The set-up layers, flat here: fresh worlds built through the sim
	// constructors, as timeSetup builds them, and each one's first round.
	epoch := time.Now()
	setupTr := newTracer(epoch)
	for i := int64(0); i < setupReps; i++ {
		debug.FreeOSMemory()
		s := setupTr.begin("deploy.generate", -1, i)
		dep := generate(cfg)
		setupTr.end(s)
		s = setupTr.begin("sim.new_network", -1, i)
		n, err := newNetwork(cfg, dep)
		setupTr.end(s)
		if err != nil {
			return err
		}
		s = setupTr.begin("sim.first_round", -1, i)
		_, err = n.RunRound(cfg.Devices)
		setupTr.end(s)
		if err != nil {
			return err
		}
	}

	w, err := buildComposed(cfg)
	if err != nil {
		return err
	}
	tr := newTracer(epoch)
	var cacc sim.Accumulator
	var req int64
	step := func(al *allocTally) error {
		st, err := w.round(tr, req, al)
		if err != nil {
			return err
		}
		s := tr.begin("sim.accumulate", -1, req)
		cacc.AddMulti(st, w.soft)
		tr.end(s)
		req++
		return nil
	}
	// The composed world replays the untraced world's round sequence,
	// warm-up rounds included; only the timed rounds' spans count.
	for i := 0; i < crossRounds; i++ {
		if err := step(nil); err != nil {
			return err
		}
	}
	tr.spans = tr.spans[:0]

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heapPeak := ms0.HeapAlloc
	timed := time.Duration(rc.Seconds) * time.Second / 2
	var tmplNS, addNS, addCalls int64
	var ffts, cands, detected, crcOK int64
	t0 := time.Now()
	n := 0
	for time.Since(t0) < timed || n == 0 {
		if err := step(nil); err != nil {
			return err
		}
		ns, _ := w.tmplSlots.drain()
		tmplNS += ns
		ns, calls := w.addSlots.drain()
		addNS += ns
		addCalls += calls
		for _, d := range w.res {
			ffts += int64(d.FFTs)
			cands += int64(len(d.Devices))
			for i := range d.Devices {
				if d.Devices[i].Detected {
					detected++
					if d.Devices[i].CRCOK {
						crcOK++
					}
				}
			}
		}
		n++
		if n%16 == 0 {
			runtime.ReadMemStats(&ms1)
			heapPeak = max(heapPeak, ms1.HeapAlloc)
		}
	}
	runtime.ReadMemStats(&ms1)
	heapPeak = max(heapPeak, ms1.HeapAlloc)
	gcCycles := ms1.NumGC - ms0.NumGC
	gcPause := time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	timedSpans := len(tr.spans)

	var al allocTally
	for i := 0; i < allocRounds; i++ {
		if err := step(&al); err != nil {
			return err
		}
	}
	w.tmplSlots.drain()
	w.addSlots.drain()

	// Fidelity: bring both worlds to the same round count and compare.
	cnt := cacc.Snapshot().Rounds
	for acc.Snapshot().Rounds < cnt {
		st, err := net.RunRound(cfg.Devices)
		if err != nil {
			return err
		}
		acc.AddMulti(st, net.SoftCombining())
	}
	for cacc.Snapshot().Rounds < acc.Snapshot().Rounds {
		if err := step(nil); err != nil {
			return err
		}
	}
	r.check(sameTotals("trace-fidelity", totalsOf(cacc.Snapshot()), totalsOf(acc.Snapshot())))
	r.Attempted++

	// Only the timed rounds' spans count: the allocation-sampling and
	// catch-up rounds ran after them.
	tr.spans = tr.spans[:timedSpans]
	ts := []*tracer{setupTr, tr}
	if err := writeSpans(rc.spansPath(), ts); err != nil {
		return err
	}
	untracedMean := summarize(durationsMS(base.durs)).Mean
	children, roots := childTotal(ts, "sim.round")
	fn := float64(n)

	r.spanP50("deploy.generate_ms.p50", "ms", ts, "deploy.generate", 1)
	r.spanP50("sim.new_network_ms.p50", "ms", ts, "sim.new_network", 1)
	r.spanP50("sim.first_round_ms.p50", "ms", ts, "sim.first_round", 1)
	build := median(durations(ts, "deploy.generate")) + median(durations(ts, "sim.new_network"))
	var timedMS float64
	for _, d := range base.durs {
		timedMS += ms(d)
	}
	r.layer("sim.setup_share", "share", build/(build+timedMS), setupReps)
	r.spanP50("sim.round_ms.p50", "ms", ts, "sim.round", 1)
	r.spanP50("sim.prep_ms.p50", "ms", ts, "sim.prep", 1)
	r.spanP50("sim.aggregate_ms.p50", "ms", ts, "sim.aggregate", 1)
	r.spanP50("sim.accumulate_us.p50", "us", ts, "sim.accumulate", 1e3)
	r.layer("sim.unaccounted_share", "share", 1-children/untracedMean, n)
	r.spanP50("air.receive_ms.p50", "ms", ts, "air.receive", 1)
	r.layer("air.receive_allocs", "count", ratio(float64(al.receive), float64(allocRounds)), allocRounds)
	accumulated, noise := channelSamples(cfg)
	r.layer("air.samples_accumulated", "count", float64(accumulated), 0)
	r.layer("air.noise_samples", "count", float64(noise), 0)
	r.layer("synth.template_busy_ms", "ms", float64(tmplNS)/1e6/fn, n)
	r.layer("synth.accumulate_busy_ms", "ms", float64(addNS)/1e6/fn, n)
	r.layer("synth.accumulate_calls", "count", float64(addCalls)/fn, n)
	r.spanP50("core.decode_ms.p50", "ms", ts, "core.decode", 1)
	r.layer("core.decode_allocs", "count", ratio(float64(al.decode), float64(al.decodes)), al.decodes)
	r.spanP50("core.spectra_decode_ms.p50", "ms", ts, "core.spectra_decode", 1)
	r.layer("core.ffts_per_round", "count", float64(ffts)/fn, n)
	r.layer("core.candidates_per_round", "count", float64(cands)/fn, n)
	r.layer("core.detect_ratio", "share", ratio(float64(detected), float64(cands)), int(cands))
	r.layer("core.crc_ok_ratio", "share", ratio(float64(crcOK), float64(detected)), int(detected))
	r.spanP50("dsp.spectra_sum_ms.p50", "ms", ts, "dsp.spectra_sum", 1)
	r.layer("dsp.emit_mb_per_round", "MB", w.emitBytesPerRound()/1e6, 0)
	r.layer("runtime.gc_cycles", "count", float64(gcCycles), 0)
	r.layer("runtime.gc_pause_ms", "ms", ms(gcPause), 0)
	r.layer("runtime.heap_peak_mb", "MB", float64(heapPeak)/(1<<20), 0)
	r.layer("trace.overhead_share", "share", ratio(roots, untracedMean)-1, n)
	return nil
}

// allocTally accumulates per-call heap allocations over sampled rounds.
type allocTally struct {
	receive, decode uint64
	decodes         int
}

// composed is a sim.MultiAPNetwork rebuilt from the layers' public
// calls, in the same draw order, so the benchmark can put a span
// around each call. It covers the static (no adversity) round only.
type composed struct {
	sc          sim.Config
	devices     int
	nAPs        int
	soft        bool
	payloadBits int
	base        sim.RoundStats

	rng      *dsp.Rand
	mch      *air.MultiChannel
	decoders []*core.ParallelDecoder
	combDec  *core.Decoder
	bestDist []float64
	oscs     []radio.Oscillator
	encs     []*core.Encoder

	txs          []air.MultiTransmission
	shifts       []int
	payloads     [][]byte
	bits         [][]byte
	sigs         [][]complex128
	res          []*core.FrameDecode
	resPlus      []*core.FrameDecode
	sel, softSel []int
	perAP        []sim.RoundStats
	emits        [][]float64
	comb         []float64

	// Per-item busy-time slots written from pool workers: one per
	// device for template synthesis, one per (AP, tile) for range
	// accumulation (a tile is accumulated by one worker at a time).
	tile      int
	nTiles    int
	tmplSlots busySlots
	addSlots  busySlots
}

// buildComposed mirrors serve's tenant construction and
// sim.NewMultiAPNetwork (code book, mac association and allocation,
// encoders, channel, decoders) step for step.
func buildComposed(cfg serve.DeploymentConfig) (*composed, error) {
	sc := simConfig(cfg)
	if sc.Fading || sc.DisablePowerControl || !sc.PowerAwareAllocation || sc.Decoder != nil {
		return nil, fmt.Errorf("composed round covers the default simulator config only")
	}
	dep := generate(cfg)
	n, k := cfg.Devices, cfg.APs
	p := sc.Params

	skip := max(sc.Skip, p.N()/n)
	skip = min(skip, p.N()/2)
	book, err := core.NewCodeBook(p, skip)
	if err != nil {
		return nil, err
	}
	if n > book.Slots() {
		return nil, fmt.Errorf("%d devices exceed %d slots", n, book.Slots())
	}
	dcfg := core.DefaultDecoderConfig(book.Skip())
	dcfg.GuardBins = min(dcfg.GuardBins, 2)
	dcfg.NoiseFloor = float64(p.N())

	w := &composed{
		sc: sc, devices: n, nAPs: k, soft: cfg.SoftCombining,
		payloadBits: sc.PayloadBytes*8 + core.CRCBits,
		rng:         dsp.NewRand(cfg.Seed + 1),
		decoders:    make([]*core.ParallelDecoder, k),
		bestDist:    make([]float64, n),
		oscs:        make([]radio.Oscillator, n),
		encs:        make([]*core.Encoder, n),
	}
	for a := range w.decoders {
		w.decoders[a] = core.NewParallelDecoder(book, dcfg, 0)
	}
	w.mch = air.NewMultiChannel(p, k, w.rng)

	// mac association: best-AP downlink power rule, then the
	// power-aware allocation on the resulting uplink strengths.
	gains := make([]float64, n)
	effSNR := make([]float64, n)
	for i := 0; i < n; i++ {
		dev := &dep.Devices[i]
		best := dev.BestAP()
		w.bestDist[i] = dev.APLinks[best].Dist
		bestDown := dev.APLinks[0].DownlinkRSSIdBm
		for _, l := range dev.APLinks[1:] {
			bestDown = max(bestDown, l.DownlinkRSSIdBm)
		}
		gains[i] = mac.NewPowerController().AssociateGainDB(bestDown)
		effSNR[i] = dev.APLinks[best].UplinkSNRdB + gains[i]
		w.oscs[i] = radio.NewBackscatterOscillator(w.rng, 20, 50)
	}
	ids := make([]uint8, n)
	for i := range ids {
		ids[i] = uint8(i)
	}
	assign := mac.NewDataOnlyAllocator(book).AssignAll(ids, effSNR)

	length := w.mch.FrameLength(core.PreambleSymbols+w.payloadBits, marginSymbols)
	w.txs = make([]air.MultiTransmission, n)
	w.shifts = make([]int, n)
	w.payloads = make([][]byte, n)
	w.bits = make([][]byte, n)
	w.sigs = make([][]complex128, k)
	for a := range w.sigs {
		w.sigs[a] = make([]complex128, length)
	}
	w.res = make([]*core.FrameDecode, k)
	w.sel = make([]int, n)
	w.softSel = make([]int, n)
	w.perAP = make([]sim.RoundStats, k)
	w.tile = discoverTile(p, length)
	w.nTiles = (length + w.tile - 1) / w.tile
	w.tmplSlots = make(busySlots, n)
	w.addSlots = make(busySlots, k*w.nTiles)
	for i := 0; i < n; i++ {
		w.shifts[i] = book.ShiftOfSlot(assign[uint8(i)])
		w.encs[i] = core.NewEncoder(p, w.shifts[i])
		w.payloads[i] = make([]byte, sc.PayloadBytes)
		w.bits[i] = make([]byte, w.payloadBits)
		snrs := make([]float64, k)
		for a := range snrs {
			snrs[a] = dep.Devices[i].APLinks[a].UplinkSNRdB + gains[i]
		}
		w.txs[i].SNRdB = snrs
		w.txs[i].MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			t0 := time.Now()
			out := w.encs[i].FrameBitsWaveformMixedTemplates(tmpl, w.bits[i], frac, freqHz, gain)
			sl := &w.tmplSlots[i]
			sl.ns += int64(time.Since(t0))
			sl.calls++
			return out
		}
		// A tile accumulates every device in transmission order, so
		// its busy span runs from device 0's call to the end of the
		// last device's: two clock reads per tile, not per call.
		w.txs[i].MixedAddRange = func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			sl := &w.addSlots[w.apOf(out)*w.nTiles+lo/w.tile]
			if i == 0 {
				sl.start = time.Now()
			}
			w.encs[i].FrameBitsWaveformMixedAddRange(out, lo, hi, at, tmpl, w.bits[i], frac, freqHz)
			sl.calls++
			if i == n-1 {
				sl.ns += int64(time.Since(sl.start))
			}
		}
	}
	if w.soft {
		w.combDec = core.NewDecoder(book, dcfg)
		emitLen := w.combDec.EmitLen(w.payloadBits)
		w.emits = make([][]float64, k)
		for a := range w.emits {
			w.emits[a] = make([]float64, emitLen)
		}
		w.comb = make([]float64, emitLen)
		w.resPlus = make([]*core.FrameDecode, 0, k+1)
	}
	w.base = sim.RoundStats{
		Devices:       n,
		ScheduledBits: n * w.payloadBits,
		RoundSecs:     sc.Timing.NetScatterRoundSeconds(p, sc.Query, sc.PayloadBytes),
		PayloadSec:    float64(w.payloadBits) * p.SymbolPeriod(),
	}
	return w, nil
}

// discoverTile finds the channel's receive tile length by running a
// noise-free one-AP receive whose range closure records the first
// tile's bounds.
func discoverTile(p chirp.Params, length int) int {
	mc := air.NewMultiChannel(p, 1, dsp.NewRand(1))
	mc.NoisePower = 0
	tile := length
	var mu sync.Mutex
	tx := air.MultiTransmission{
		SNRdB: []float64{0},
		MixedTmpl: func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			return tmpl[:0]
		},
		MixedAddRange: func(out []complex128, lo, hi, at int, tmpl []complex128, frac, freqHz float64) {
			if lo == 0 {
				mu.Lock()
				tile = hi
				mu.Unlock()
			}
		},
	}
	mc.Receive(length, []air.MultiTransmission{tx})
	return tile
}

// apOf maps a receive buffer back to its AP.
func (w *composed) apOf(out []complex128) int {
	for a, s := range w.sigs {
		if &s[0] == &out[0] {
			return a
		}
	}
	panic("nsbench: range accumulate into an unknown buffer")
}

// emitBytesPerRound is the computed traffic of soft combining: the
// per-AP spectra written by the emitting decodes, plus the reads and
// writes of summing them.
func (w *composed) emitBytesPerRound() float64 {
	if !w.soft {
		return 0
	}
	row := float64(len(w.comb)) * 8
	emitted := float64(w.nAPs) * row
	sum := 2*row + float64(w.nAPs-1)*3*row // one copy, then read-read-write per add
	return emitted + sum
}

// round is one composed round: the untraced runRound's steps in its
// order, each inside a span. al, when set, samples per-call
// allocations (outside the timed rounds).
func (w *composed) round(tr *tracer, req int64, al *allocTally) (sim.MultiRoundStats, error) {
	n := w.devices
	root := tr.begin("sim.round", -1, req)

	s := tr.begin("sim.prep", root, req)
	for i := 0; i < n; i++ {
		w.rng.FillBytes(w.payloads[i])
		core.FrameBitsInto(w.bits[i], w.payloads[i])
		w.txs[i].DelaySec = w.sc.DelayModel.Draw(w.rng) + hw.PropagationDelaySec(w.bestDist[i])
		w.txs[i].FreqOffsetHz = w.oscs[i].PacketOffsetHz(w.rng)
		w.txs[i].FadeGain = 0
	}
	tr.end(s)

	var m0 uint64
	if al != nil {
		m0 = mallocs()
	}
	s = tr.begin("air.receive", root, req)
	w.mch.ReceiveInto(w.sigs, w.txs)
	tr.end(s)
	if al != nil {
		al.receive += mallocs() - m0
	}

	for a := 0; a < w.nAPs; a++ {
		if al != nil {
			m0 = mallocs()
		}
		s = tr.begin("core.decode", root, req)
		var res *core.FrameDecode
		var err error
		if w.soft {
			res, err = w.decoders[a].DecodeFrameEmit(w.sigs[a], 0, w.shifts, w.payloadBits, w.emits[a])
		} else {
			res, err = w.decoders[a].DecodeFrame(w.sigs[a], 0, w.shifts, w.payloadBits)
		}
		tr.end(s)
		if al != nil {
			al.decode += mallocs() - m0
			al.decodes++
		}
		if err != nil {
			return sim.MultiRoundStats{}, err
		}
		w.res[a] = res
	}

	var softRes *core.FrameDecode
	if w.soft {
		s = tr.begin("dsp.spectra_sum", root, req)
		copy(w.comb, w.emits[0])
		for a := 1; a < w.nAPs; a++ {
			dsp.AddFloat64(w.comb, w.emits[a])
		}
		tr.end(s)
		s = tr.begin("core.spectra_decode", root, req)
		res, err := w.combDec.DecodeFrameSpectra(w.comb, w.nAPs, w.shifts, w.payloadBits)
		tr.end(s)
		if err != nil {
			return sim.MultiRoundStats{}, err
		}
		softRes = res
	}

	s = tr.begin("sim.aggregate", root, req)
	for a := 0; a < w.nAPs; a++ {
		st := &w.perAP[a]
		*st = w.base
		for i := range w.res[a].Devices {
			w.tally(st, &w.res[a].Devices[i], i)
		}
	}
	sim.AggregateDecodes(w.sel, w.res)
	combined := w.base
	for i, a := range w.sel {
		if a >= 0 {
			w.tally(&combined, &w.res[a].Devices[i], i)
		}
	}
	var soft sim.RoundStats
	if w.soft {
		soft = w.base
		w.resPlus = append(w.resPlus[:0], w.res...)
		w.resPlus = append(w.resPlus, softRes)
		sim.AggregateDecodes(w.softSel, w.resPlus)
		for i, a := range w.softSel {
			if a >= 0 {
				w.tally(&soft, &w.resPlus[a].Devices[i], i)
			}
		}
	}
	tr.end(s)
	tr.end(root)
	return sim.MultiRoundStats{Combined: combined, Soft: soft, PerAP: w.perAP}, nil
}

// tally folds device i's decode into st: detection, payload bit errors
// and frame validity against what it sent.
func (w *composed) tally(st *sim.RoundStats, d *core.DeviceDecode, i int) {
	if !d.Detected {
		return
	}
	st.Detected++
	st.TotalBits += w.payloadBits
	for j, b := range w.bits[i] {
		if d.Bits[j] != b {
			st.BitErrors++
		}
	}
	if d.CRCOK && bytes.Equal(d.Payload, w.payloads[i]) {
		st.FramesOK++
	}
}
