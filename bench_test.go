// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, delegating to the
// internal/exper registry), plus the ablation benches DESIGN.md calls
// out: decoder scaling, SKIP spacing, allocation policy, zero-padding
// and the OOK threshold.
//
// Run a single figure with, e.g.:
//
//	go test -bench=BenchmarkFig17 -benchtime=1x
package netscatter

import (
	"fmt"
	"runtime"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/exper"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// benchExperiment runs one registered experiment per iteration in quick
// mode. The tables themselves are printed by cmd/netscatter-exp; here
// the value is wall-clock tracking and regression protection.
func benchExperiment(b *testing.B, id string) {
	e, ok := exper.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := exper.Config{Seed: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B)               { benchExperiment(b, "T1") }
func BenchmarkChoirCollision(b *testing.B)       { benchExperiment(b, "C1") }
func BenchmarkFig4(b *testing.B)                 { benchExperiment(b, "F4") }
func BenchmarkFig7a(b *testing.B)                { benchExperiment(b, "F7") }
func BenchmarkFig8(b *testing.B)                 { benchExperiment(b, "F8") }
func BenchmarkFig9(b *testing.B)                 { benchExperiment(b, "F9") }
func BenchmarkFig12(b *testing.B)                { benchExperiment(b, "F12") }
func BenchmarkFig14a(b *testing.B)               { benchExperiment(b, "F14A") }
func BenchmarkFig14b(b *testing.B)               { benchExperiment(b, "F14B") }
func BenchmarkFig15a(b *testing.B)               { benchExperiment(b, "F15A") }
func BenchmarkFig15b(b *testing.B)               { benchExperiment(b, "F15B") }
func BenchmarkFig16(b *testing.B)                { benchExperiment(b, "F16") }
func BenchmarkFig17(b *testing.B)                { benchExperiment(b, "F17") }
func BenchmarkFig18(b *testing.B)                { benchExperiment(b, "F18") }
func BenchmarkFig19(b *testing.B)                { benchExperiment(b, "F19") }
func BenchmarkShannon(b *testing.B)              { benchExperiment(b, "S1") }
func BenchmarkBandwidthAggregation(b *testing.B) { benchExperiment(b, "B1") }

// --- ablation: receiver complexity (the §3.1 single-FFT claim) ---

// BenchmarkDecoderScaling decodes the same 64-device frame against
// growing candidate sets. Receiver work should stay nearly flat in the
// number of devices — the whole point of distributed CSS.
func BenchmarkDecoderScaling(b *testing.B) {
	p := chirp.Default500k9
	book, err := core.NewCodeBook(p, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := dsp.NewRand(1)
	payload := []byte{1, 2, 3, 4, 5}
	bits := len(payload)*8 + core.CRCBits
	var txs []air.Transmission
	for i := 0; i < 64; i++ {
		enc := core.NewEncoder(p, book.ShiftOfSlot(i))
		txs = append(txs, air.Transmission{Waveform: enc.FrameWaveform(payload), SNRdB: 8})
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), txs)

	for _, candidates := range []int{1, 16, 64, 256} {
		shifts := book.AllShifts()[:candidates]
		b.Run(fmt.Sprintf("candidates=%d", candidates), func(b *testing.B) {
			dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(sig, 0, shifts, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The parallel pipeline on the same frame: spectra fan out over
	// GOMAXPROCS workers with bit-identical output.
	shifts := book.AllShifts()
	b.Run("candidates=256/parallel", func(b *testing.B) {
		dec := core.NewParallelDecoder(book, core.DefaultDecoderConfig(2), 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dec.DecodeFrame(sig, 0, shifts, bits); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ablation: SKIP spacing vs decode reliability (§3.2.1) ---

func BenchmarkSkipAblation(b *testing.B) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	for _, skip := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("skip=%d", skip), func(b *testing.B) {
			var good, total int
			for i := 0; i < b.N; i++ {
				g, t := runSkipRound(p, skip, int64(i))
				good += g
				total += t
			}
			b.ReportMetric(float64(good)/float64(total), "frameOK/tx")
		})
	}
}

// runSkipRound fills every slot of a SKIP-spaced book under the
// measured hardware timing jitter and counts decoded frames.
func runSkipRound(p chirp.Params, skip int, seed int64) (good, total int) {
	book, err := core.NewCodeBook(p, skip)
	if err != nil {
		return 0, 1
	}
	rng := dsp.NewRand(seed*31 + 7)
	n := book.Slots()
	if n > 32 {
		n = 32
	}
	payload := make([][]byte, n)
	var txs []air.Transmission
	shifts := make([]int, n)
	for i := 0; i < n; i++ {
		shifts[i] = book.ShiftOfSlot(i)
		payload[i] = rng.Bytes(2)
		enc := core.NewEncoder(p, shifts[i])
		pl := payload[i]
		txs = append(txs, air.Transmission{
			Delayed: func(frac float64) []complex128 {
				return enc.FrameWaveformDelayed(pl, frac)
			},
			SNRdB: rng.Uniform(5, 10),
			// Hardware delay jitter up to ~0.45 of a bin — the regime
			// SKIP=1 cannot survive and SKIP>=2 is designed for.
			DelaySec: rng.Uniform(0, 0.45) / p.BW,
		})
	}
	bits := 2*8 + core.CRCBits
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), txs)
	dec := core.NewDecoder(book, core.DefaultDecoderConfig(skip))
	res, err := dec.DecodeFrame(sig, 0, shifts, bits)
	if err != nil {
		return 0, n
	}
	for i, dev := range res.Devices {
		if dev.CRCOK && string(dev.Payload) == string(payload[i]) {
			good++
		}
	}
	return good, n
}

// --- ablation: power-aware vs random shift allocation (§3.2.3) ---

func BenchmarkAllocationAblation(b *testing.B) {
	for _, aware := range []bool{true, false} {
		name := "power-aware"
		if !aware {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			var goodSum float64
			for i := 0; i < b.N; i++ {
				rng := dsp.NewRand(int64(i) + 1)
				dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 128, 500e3, rng)
				cfg := sim.DefaultConfig()
				cfg.PayloadBytes = 4
				cfg.PowerAwareAllocation = aware
				net, err := sim.NewMultiAPNetwork(cfg, dep, 1, 128, int64(i)+100)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := net.RunRound(128)
				if err != nil {
					b.Fatal(err)
				}
				goodSum += stats.Combined.GoodFraction()
			}
			b.ReportMetric(goodSum/float64(b.N), "goodbits/tx")
		})
	}
}

// --- ablation: zero-padding factor (§3.2.3 sub-bin resolution) ---

func BenchmarkZeroPadAblation(b *testing.B) {
	p := chirp.Default500k9
	book, err := core.NewCodeBook(p, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := dsp.NewRand(5)
	payload := []byte{0xAB, 0xCD, 0xEF}
	bits := len(payload)*8 + core.CRCBits
	var txs []air.Transmission
	shifts := make([]int, 32)
	for i := range shifts {
		shifts[i] = book.ShiftOfSlot(i)
		enc := core.NewEncoder(p, shifts[i])
		pl := payload
		txs = append(txs, air.Transmission{
			Delayed: func(frac float64) []complex128 {
				return enc.FrameWaveformDelayed(pl, frac)
			},
			SNRdB:    8,
			DelaySec: rng.Uniform(0, 0.4) / p.BW,
		})
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), txs)

	for _, zp := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("zeropad=%d", zp), func(b *testing.B) {
			cfg := core.DefaultDecoderConfig(2)
			cfg.ZeroPad = zp
			dec := core.NewDecoder(book, cfg)
			var ok int
			for i := 0; i < b.N; i++ {
				res, err := dec.DecodeFrame(sig, 0, shifts, bits)
				if err != nil {
					b.Fatal(err)
				}
				ok = 0
				for _, dev := range res.Devices {
					if dev.CRCOK {
						ok++
					}
				}
			}
			b.ReportMetric(float64(ok)/float64(len(shifts)), "frameOK/tx")
		})
	}
}

// --- ablation: OOK threshold rule (paper's mean/2 vs the tuned 0.35) ---

func BenchmarkOOKThresholdAblation(b *testing.B) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	for _, factor := range []float64{0.5, 0.35, 0.25} {
		b.Run(fmt.Sprintf("factor=%.2f", factor), func(b *testing.B) {
			var good, total int
			for i := 0; i < b.N; i++ {
				book, _ := core.NewCodeBook(p, 2)
				rng := dsp.NewRand(int64(i)*13 + 3)
				n := 32
				var txs []air.Transmission
				shifts := make([]int, n)
				payloads := make([][]byte, n)
				for j := 0; j < n; j++ {
					shifts[j] = book.ShiftOfSlot(j)
					payloads[j] = rng.Bytes(2)
					enc := core.NewEncoder(p, shifts[j])
					pl := payloads[j]
					txs = append(txs, air.Transmission{
						Delayed: func(frac float64) []complex128 {
							return enc.FrameWaveformDelayed(pl, frac)
						},
						SNRdB:    rng.Uniform(4, 10),
						DelaySec: rng.Uniform(0, 0.4) / p.BW,
					})
				}
				bits := 2*8 + core.CRCBits
				ch := air.NewChannel(p, rng)
				sig := ch.Receive(ch.FrameLength(core.PreambleSymbols+bits, 2), txs)
				cfg := core.DefaultDecoderConfig(2)
				cfg.OOKFactor = factor
				dec := core.NewDecoder(book, cfg)
				res, err := dec.DecodeFrame(sig, 0, shifts, bits)
				if err != nil {
					b.Fatal(err)
				}
				for j, dev := range res.Devices {
					if dev.CRCOK && string(dev.Payload) == string(payloads[j]) {
						good++
					}
				}
				total += n
			}
			b.ReportMetric(float64(good)/float64(total), "frameOK/tx")
		})
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkFFT4096(b *testing.B) {
	plan := dsp.Plan(4096)
	buf := make([]complex128, 4096)
	rng := dsp.NewRand(1)
	for i := range buf {
		buf[i] = rng.ComplexNormal(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Forward(buf)
	}
}

func BenchmarkFFT4096Pruned(b *testing.B) {
	// The receiver's actual transform: 512 nonzero dechirped samples
	// zero-padded 8x, with the early stages pruned away.
	plan := dsp.Plan(4096)
	buf := make([]complex128, 4096)
	rng := dsp.NewRand(1)
	for i := 0; i < 512; i++ {
		buf[i] = rng.ComplexNormal(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.ForwardPruned(buf, 512)
	}
}

func BenchmarkFFT4096PrunedBatch(b *testing.B) {
	// The batched receiver's transform: the same pruned FFT through the
	// planar split re/im layout with fused and cache-blocked stages.
	bp := dsp.PlanBatch(4096, 512)
	re := make([]float64, 4096)
	im := make([]float64, 4096)
	rng := dsp.NewRand(1)
	for i := 0; i < 512; i++ {
		v := rng.ComplexNormal(1)
		re[i] = real(v)
		im[i] = imag(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.Forward(re, im)
	}
}

func BenchmarkSymbolSpectrum(b *testing.B) {
	// One dechirp + padded FFT: the per-symbol receiver cost that is
	// independent of the number of devices.
	p := chirp.Default500k9
	dem := chirp.NewDemodulator(p, 8)
	mod := chirp.NewModulator(p)
	sym := mod.Symbol(37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dem.Spectrum(sym)
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	enc := core.NewEncoder(chirp.Default500k9, 42)
	payload := []byte{1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.FrameWaveform(payload)
	}
}

func BenchmarkEncodeFrameDelayed(b *testing.B) {
	enc := core.NewEncoder(chirp.Default500k9, 42)
	payload := []byte{1, 2, 3, 4, 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.FrameWaveformDelayed(payload, 0.37)
	}
}

func BenchmarkEncodeFrameDelayedInto(b *testing.B) {
	// The round context's reuse pattern: same frame, preallocated
	// destination — the steady-state synthesis cost per device.
	enc := core.NewEncoder(chirp.Default500k9, 42)
	bits := core.FrameBits([]byte{1, 2, 3, 4, 5})
	dst := enc.FrameBitsWaveformDelayedInto(nil, bits, 0.37)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc.FrameBitsWaveformDelayedInto(dst, bits, 0.37)
	}
}

func BenchmarkEncodeFrameMixedInto(b *testing.B) {
	// The simulator's hot path: synthesis with frequency offset and
	// carrier gain folded into the recurrence.
	enc := core.NewEncoder(chirp.Default500k9, 42)
	bits := core.FrameBits([]byte{1, 2, 3, 4, 5})
	dst := enc.FrameBitsWaveformMixedInto(nil, bits, 0.37, 230, complex(1.4, -0.3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc.FrameBitsWaveformMixedInto(dst, bits, 0.37, 230, complex(1.4, -0.3))
	}
}

// BenchmarkNetworkRound64 runs the 64-device round heard by a single
// AP: the simulator's single-AP round on the multi-AP engine at k = 1.
func BenchmarkNetworkRound64(b *testing.B) {
	rng := dsp.NewRand(9)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, rng)
	cfg := sim.DefaultConfig()
	net, err := sim.NewMultiAPNetwork(cfg, dep, 1, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.RunRound(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiAPRound64x2 runs the 64-device round heard by two APs:
// template synthesis once per device, per-AP scaled fan-out over the
// tile grid, two parallel decodes and the cross-AP aggregation —
// allocation-free in steady state like the single-AP round. The ratio
// against BenchmarkNetworkRound64 is the marginal cost of an AP.
func BenchmarkMultiAPRound64x2(b *testing.B) {
	rng := dsp.NewRand(9)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, rng)
	dep.PlaceAPs(2)
	cfg := sim.DefaultConfig()
	net, err := sim.NewMultiAPNetwork(cfg, dep, 2, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.RunRound(64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiAPDiversity(b *testing.B) { benchExperiment(b, "M1") }

// BenchmarkCombinedRound64x4 runs the 64-device round heard by four
// APs with soft spectral combining on: four emit decodes filling the
// planar spectra arenas, the bin-wise arena sum, the combined-spectra
// decode and both aggregations. The ratio against MultiAPRound64x2 is
// the soft path's overhead; steady state stays allocation-free
// (test-enforced in internal/sim).
func BenchmarkCombinedRound64x4(b *testing.B) {
	rng := dsp.NewRand(9)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, rng)
	dep.PlaceAPs(4)
	cfg := sim.DefaultConfig()
	net, err := sim.NewMultiAPNetwork(cfg, dep, 4, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	net.SetSoftCombining(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.RunRound(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryRound64 steps a 64-device, 2-AP adversarial
// trajectory in its event-free steady state: correlated fading and CFO
// drift evolve every round (per-device AR(1) and random-walk updates,
// power-rule adjustment, SNR refresh) but no churn/burst/dropout
// events fire, so no re-association or burst synthesis happens. The
// ratio against MultiAPRound64x2 is the adversity layer's overhead on
// top of a plain round — it must stay allocation-free.
func BenchmarkTrajectoryRound64(b *testing.B) {
	rng := dsp.NewRand(9)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, rng)
	dep.PlaceAPs(2)
	cfg := sim.DefaultConfig()
	net, err := sim.NewMultiAPNetwork(cfg, dep, 2, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.NewTrajectory(net, sim.TrajectoryConfig{
		Rounds:      1 << 15, // pre-size the stats arenas past any b.N
		Seed:        9,
		Correlation: 0.9,
		KFactorDB:   20,
		CFODriftHz:  0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkRound64Parallel is the same round with the worker
// pool widened to four slots: the channel fans template synthesis and
// the tile grid across the pool and the decoder fans symbol batches,
// with output bit-identical to the serial round (test-enforced). On a
// single hardware thread this measures the parallel path's overhead
// floor; on multi-core hosts it tracks round-time scaling with cores.
func BenchmarkNetworkRound64Parallel(b *testing.B) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := dsp.NewRand(9)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, rng)
	cfg := sim.DefaultConfig()
	net, err := sim.NewMultiAPNetwork(cfg, dep, 1, 64, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.RunRound(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNoiseFill64k tracks the vectorized noise engine: 64k
// Gaussian draws filled and fused-added as unit AWGN over a 32k-sample
// receive buffer, the per-round noise cost of the simulator.
func BenchmarkNoiseFill64k(b *testing.B) {
	st := dsp.NewStream(1)
	sig := make([]complex128, 32768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.AddAWGN(st, sig, 1)
	}
}
