// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, delegating to the
// internal/exper registry), plus the ablation benches DESIGN.md calls
// out: decoder scaling, SKIP spacing, allocation policy, zero-padding
// and the OOK threshold. The hot-path micro-benchmarks are one-line
// wrappers over internal/benchsuite, which cmd/netscatter-bench runs
// too.
//
// Run a single figure with, e.g.:
//
//	go test -bench=BenchmarkFig17 -benchtime=1x
package netscatter

import (
	"fmt"
	"strings"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/benchsuite"
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
// growing candidate sets, serially and with the parallel pipeline.
// Receiver work should stay nearly flat in the number of devices — the
// whole point of distributed CSS.
func BenchmarkDecoderScaling(b *testing.B) {
	for _, c := range benchsuite.Cases() {
		if sub, ok := strings.CutPrefix(c.Name, "DecoderScaling/"); ok {
			b.Run(sub, func(b *testing.B) { benchsuite.Run(b, c) })
		}
	}
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

// --- micro-benchmarks of the hot paths (defined in internal/benchsuite) ---

// benchCase runs the benchsuite case called name under b.
func benchCase(b *testing.B, name string) {
	for _, c := range benchsuite.Cases() {
		if c.Name == name {
			benchsuite.Run(b, c)
			return
		}
	}
	b.Fatalf("benchsuite: no case %q", name)
}

func BenchmarkFFT4096(b *testing.B)                { benchCase(b, "FFT4096") }
func BenchmarkFFT4096Pruned(b *testing.B)          { benchCase(b, "FFT4096Pruned") }
func BenchmarkFFT4096PrunedBatch(b *testing.B)     { benchCase(b, "FFT4096PrunedBatch") }
func BenchmarkSymbolSpectrum(b *testing.B)         { benchCase(b, "SymbolSpectrum") }
func BenchmarkScanBatch48(b *testing.B)            { benchCase(b, "ScanBatch48") }
func BenchmarkEncodeFrame(b *testing.B)            { benchCase(b, "EncodeFrame") }
func BenchmarkEncodeFrameDelayed(b *testing.B)     { benchCase(b, "EncodeFrameDelayed") }
func BenchmarkEncodeFrameDelayedInto(b *testing.B) { benchCase(b, "EncodeFrameDelayedInto") }
func BenchmarkEncodeFrameMixedInto(b *testing.B)   { benchCase(b, "EncodeFrameMixedInto") }
func BenchmarkNoiseFill64k(b *testing.B)           { benchCase(b, "NoiseFill64k") }
func BenchmarkNoiseFill64kLanes(b *testing.B)      { benchCase(b, "NoiseFill64kLanes") }
func BenchmarkNetworkRound64(b *testing.B)         { benchCase(b, "NetworkRound64") }
func BenchmarkMultiAPRound64x2(b *testing.B)       { benchCase(b, "MultiAPRound64x2") }
func BenchmarkCombinedRound64x4(b *testing.B)      { benchCase(b, "CombinedRound64x4") }
func BenchmarkTrajectoryRound64(b *testing.B)      { benchCase(b, "TrajectoryRound64") }
func BenchmarkNetworkRound64Parallel(b *testing.B) { benchCase(b, "NetworkRound64/parallel") }

// BenchmarkFacadeRun64 times the public API's round: Network.Run with 64
// devices each sending a 5-byte payload, the copies of the delivered
// payloads included.
func BenchmarkFacadeRun64(b *testing.B) {
	const devices = 64
	net, err := NewNetwork(DefaultParams(), Options{Devices: devices, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	payloads := make(map[int][]byte, devices)
	for i := 0; i < devices; i++ {
		payloads[i] = []byte{byte(i), 0xCA, 0xFE, byte(3 * i), 0x01}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(payloads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiAPDiversity(b *testing.B) { benchExperiment(b, "M1") }
