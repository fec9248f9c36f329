// Package benchsuite defines the repository's micro-benchmarks once:
// each Case names a hot path and builds the world it runs in. Two
// consumers read the same registry — the root package's
// `go test -bench` wrappers (bench_test.go) and cmd/netscatter-bench,
// which writes the BENCH_<tag>.json reports that cmd/benchguard gates —
// so a benchmark's name, seed, size and body cannot drift between them.
package benchsuite

import (
	"runtime"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// Case is one micro-benchmark. Setup builds the case's world outside
// the timer and returns the measured operation.
type Case struct {
	Name  string
	Setup func() (op func() error, err error)
	// Procs, when positive, is the GOMAXPROCS the case runs under; the
	// previous value is restored after the run.
	Procs int
}

// Run measures c under b: it sets the case up, runs the op once so
// first-call arena growth stays out of allocs/op, then times b.N ops.
func Run(b *testing.B, c Case) {
	if c.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.Procs))
	}
	op, err := c.Setup()
	if err != nil {
		b.Fatal(err)
	}
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// Bench runs the case called name under b.
func Bench(b *testing.B, name string) {
	for _, c := range Cases() {
		if c.Name == name {
			Run(b, c)
			return
		}
	}
	b.Fatalf("benchsuite: no case %q", name)
}

// Cases returns every micro-benchmark in report order.
func Cases() []Case {
	p := chirp.Default500k9
	payload := []byte{1, 2, 3, 4, 5}
	return []Case{
		// Decoder scaling (the §3.1 single-FFT claim): one 64-device
		// frame decoded against growing candidate sets on one worker
		// (the pool runs the symbol batches inline), then at the host's
		// GOMAXPROCS. Receiver work should stay nearly flat in the
		// number of devices.
		{Name: "DecoderScaling/candidates=1", Procs: 1, Setup: func() (func() error, error) { return decodeFrame64(1) }},
		{Name: "DecoderScaling/candidates=16", Procs: 1, Setup: func() (func() error, error) { return decodeFrame64(16) }},
		{Name: "DecoderScaling/candidates=64", Procs: 1, Setup: func() (func() error, error) { return decodeFrame64(64) }},
		{Name: "DecoderScaling/candidates=256", Procs: 1, Setup: func() (func() error, error) { return decodeFrame64(256) }},
		{Name: "DecoderScaling/candidates=256/parallel", Setup: func() (func() error, error) { return decodeFrame64(256) }},
		// One dechirp + padded FFT: the per-symbol receiver cost that is
		// independent of the number of devices.
		{Name: "SymbolSpectrum", Setup: func() (func() error, error) {
			dem := chirp.NewDemodulator(p, 8)
			sym := chirp.NewModulator(p).Symbol(37)
			return func() error { dem.Spectrum(sym); return nil }, nil
		}},
		{Name: "FFT4096", Setup: func() (func() error, error) {
			plan, buf := dsp.Plan(4096), randomSamples(4096, 4096)
			return func() error { plan.Forward(buf); return nil }, nil
		}},
		// The receiver's transform: 512 nonzero dechirped samples
		// zero-padded 8x, with the early stages pruned away.
		{Name: "FFT4096Pruned", Setup: func() (func() error, error) {
			plan, buf := dsp.Plan(4096), randomSamples(4096, 512)
			return func() error { plan.ForwardPruned(buf, 512); return nil }, nil
		}},
		// The same pruned FFT through the batched receiver's planar
		// re/im layout with fused and cache-blocked stages.
		{Name: "FFT4096PrunedBatch", Setup: func() (func() error, error) {
			bp := dsp.PlanBatch(4096, 512)
			re, im := make([]float64, 4096), make([]float64, 4096)
			for i, v := range randomSamples(512, 512) {
				re[i], im[i] = real(v), imag(v)
			}
			return func() error { bp.Forward(re, im); return nil }, nil
		}},
		// The decoder's batch front end: dechirp, FFT and window-power
		// scan of 48 noisy symbols at 64 candidate centres.
		{Name: "ScanBatch48", Setup: func() (func() error, error) {
			const nSyms = 48
			dem, mod, n := chirp.NewDemodulator(p, 8), chirp.NewModulator(p), p.N()
			sig := make([]complex128, (nSyms+1)*n)
			r := dsp.NewRand(2)
			for i := range sig {
				sig[i] = r.ComplexNormal(1)
			}
			for s := 0; s < nSyms; s++ {
				for i, v := range mod.Symbol(s * 7 % n) {
					sig[s*n+i] += v * 2
				}
			}
			centers := make([]int, 64)
			for i := range centers {
				centers[i] = (i * 8 * dem.ZeroPad()) % dem.PaddedBins()
			}
			out := make([]float64, len(centers)*nSyms)
			return func() error { dem.ScanBatch(sig, 0, 0, nSyms, centers, 2, out, nSyms, nil); return nil }, nil
		}},
		{Name: "EncodeFrame", Setup: func() (func() error, error) {
			enc := core.NewEncoder(p, 42)
			return func() error { enc.FrameWaveform(payload); return nil }, nil
		}},
		{Name: "EncodeFrameDelayed", Setup: func() (func() error, error) {
			enc := core.NewEncoder(p, 42)
			return func() error { enc.FrameWaveformDelayed(payload, 0.37); return nil }, nil
		}},
		// A round's reuse pattern: same frame, reused destination — the
		// steady-state synthesis cost per device.
		{Name: "EncodeFrameDelayedInto", Setup: func() (func() error, error) {
			enc, bits := core.NewEncoder(p, 42), core.FrameBits(payload)
			var dst []complex128
			return func() error { dst = enc.FrameBitsWaveformDelayedInto(dst, bits, 0.37); return nil }, nil
		}},
		// The simulator's template synthesis: frequency offset and
		// carrier gain folded into the recurrence.
		{Name: "EncodeFrameMixedInto", Setup: func() (func() error, error) {
			enc, bits := core.NewEncoder(p, 42), core.FrameBits(payload)
			var dst []complex128
			return func() error {
				dst = enc.FrameBitsWaveformMixedInto(dst, bits, 0.37, 230, complex(1.4, -0.3))
				return nil
			}, nil
		}},
		// The vectorized noise engine: 64k Gaussian draws fused-added
		// as unit AWGN over a 32k-sample receive buffer, the per-round
		// noise cost of the simulator.
		{Name: "NoiseFill64k", Setup: func() (func() error, error) {
			st, sig := dsp.NewStream(1), make([]complex128, 32768)
			return func() error { radio.AddAWGN(st, sig, 1); return nil }, nil
		}},
		// The same 64k draws as four 8192-sample (AP, tile) streams
		// through the lane fill, the receive's noise phase per group.
		{Name: "NoiseFill64kLanes", Setup: func() (func() error, error) {
			var sts [dsp.ZigLanes]*dsp.Stream
			var sigs [dsp.ZigLanes][]complex128
			for l := range sts {
				st := dsp.StreamAt(1, uint64(l))
				sts[l], sigs[l] = &st, make([]complex128, 8192)
			}
			return func() error { radio.AddAWGNLanes(sts[:], sigs[:], 1); return nil }, nil
		}},
		// The 64-device office rounds, allocation-free in steady state.
		// NetworkRound64 is the single-AP round on the multi-AP engine
		// at k = 1; the ratio of MultiAPRound64x2 to it is the marginal
		// cost of an AP, and CombinedRound64x4's ratio to
		// MultiAPRound64x2 is soft combining's overhead.
		{Name: "NetworkRound64", Setup: func() (func() error, error) { return round64(1, false) }},
		{Name: "MultiAPRound64x2", Setup: func() (func() error, error) { return round64(2, false) }},
		{Name: "CombinedRound64x4", Setup: func() (func() error, error) { return round64(4, true) }},
		// The 2-AP round stepped through the adversity layer in its
		// event-free steady state: fading and CFO drift evolve and the
		// power rule re-adjusts every device, but no churn, burst or
		// dropout fires.
		{Name: "TrajectoryRound64", Setup: func() (func() error, error) {
			net, err := network64(2)
			if err != nil {
				return nil, err
			}
			tr, err := sim.NewTrajectory(net, sim.TrajectoryConfig{
				Rounds:      1 << 15, // pre-size the stats arenas past any b.N
				Seed:        9,
				Correlation: 0.9,
				KFactorDB:   20,
				CFODriftHz:  0.5,
			})
			if err != nil {
				return nil, err
			}
			return func() error { _, err := tr.Step(); return err }, nil
		}},
		// The single-AP round fanned across a four-slot pool,
		// bit-identical to the serial round (test-enforced). On one
		// hardware thread it records the parallel path's overhead floor,
		// on more it records scaling with cores.
		{Name: "NetworkRound64/parallel", Procs: 4, Setup: func() (func() error, error) { return round64(1, false) }},
	}
}

// decodeFrame64 synthesizes 64 devices' 5-byte frames at 8 dB on
// SKIP-2 slots and returns an op decoding the received frame against
// the code book's first candidates shifts.
func decodeFrame64(candidates int) (func() error, error) {
	p := chirp.Default500k9
	book, err := core.NewCodeBook(p, 2)
	if err != nil {
		return nil, err
	}
	payload := []byte{1, 2, 3, 4, 5}
	bits := len(payload)*8 + core.CRCBits
	txs := make([]air.Transmission, 64)
	for i := range txs {
		enc := core.NewEncoder(p, book.ShiftOfSlot(i))
		txs[i] = air.Transmission{Waveform: enc.FrameWaveform(payload), SNRdB: 8}
	}
	ch := air.NewChannel(p, dsp.NewRand(1))
	sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), txs)
	shifts := book.AllShifts()[:candidates]
	dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))
	return func() error { _, err := dec.DecodeFrame(sig, 0, shifts, bits); return err }, nil
}

// randomSamples returns n samples whose first nonzero entries are unit
// complex Gaussians drawn from seed 1, the rest zero.
func randomSamples(n, nonzero int) []complex128 {
	buf := make([]complex128, n)
	r := dsp.NewRand(1)
	for i := 0; i < nonzero; i++ {
		buf[i] = r.ComplexNormal(1)
	}
	return buf
}

// network64 builds the 64-device office deployment (seed 9) heard by
// k APs, with the default round config.
func network64(k int) (*sim.MultiAPNetwork, error) {
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, dsp.NewRand(9))
	return sim.NewMultiAPNetwork(sim.DefaultConfig(), dep, k, 64, 10)
}

// round64 returns an op running one round of network64(k), with soft
// cross-AP combining on or off.
func round64(k int, soft bool) (func() error, error) {
	net, err := network64(k)
	if err != nil {
		return nil, err
	}
	net.SetSoftCombining(soft)
	return func() error { _, err := net.RunRound(64); return err }, nil
}
