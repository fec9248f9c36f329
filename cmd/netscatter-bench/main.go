// Command netscatter-bench runs the repository's key performance
// benchmarks — decoder scaling, the per-symbol spectrum, the padded FFT
// (full and pruned) and a 64-device network round — and writes the
// results as machine-readable JSON (BENCH_<tag>.json), so successive
// PRs accumulate a perf trajectory that can be diffed mechanically.
//
// Usage:
//
//	go run ./cmd/netscatter-bench -tag PR1 [-out .] [-benchtime 1s]
//	    [-best N] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -best N runs the whole suite N times and keeps each benchmark's
// minimum ns/op — the least-noise estimate on a shared machine; the
// chosen N is recorded in the report's best_of field so committed
// trajectories state their own methodology. -cpuprofile/-memprofile
// write pprof profiles covering the benchmark runs (CPU spans every
// pass; the heap snapshot is taken after the last), for
// `go tool pprof` against the netscatter-bench binary.
//
// scripts/benchguard.sh diffs the two newest committed reports and
// fails on a >10% ns/op regression or any new allocation. Newly added
// benchmarks are accepted silently; renames and removals must be
// declared explicitly:
//
//	scripts/benchguard.sh                                 # gate HEAD vs previous
//	scripts/benchguard.sh -allow-new OldName=NewName      # declare a rename
//	scripts/benchguard.sh -allow-new RetiredName          # declare a removal
//
// (README.md "Performance trajectory" documents the same workflow.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// Result is one benchmark's outcome.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the whole run. The machine metadata (go version, GOOS,
// GOARCH, CPU count, GOMAXPROCS, CPU model) identifies the measurement
// environment; scripts/benchguard.sh refuses to diff reports whose
// environments differ, so the committed trajectory can't silently mix
// apples and oranges.
type Report struct {
	Tag        string   `json:"tag"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	BenchTime  string   `json:"bench_time,omitempty"`
	BestOf     int      `json:"best_of,omitempty"`
	Timestamp  string   `json:"timestamp"`
	Results    []Result `json:"results"`
}

// cpuModel returns the CPU model string, best-effort: /proc/cpuinfo on
// Linux, empty elsewhere (the field is omitted and benchguard treats it
// as unknown-compatible).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func main() {
	testing.Init() // registers test.benchtime before we set it
	tag := flag.String("tag", "local", "report tag; output file is BENCH_<tag>.json")
	out := flag.String("out", ".", "output directory")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark target duration")
	best := flag.Int("best", 1, "run the suite N times, keep each benchmark's minimum ns/op")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering all benchmark passes to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()
	if *best < 1 {
		fmt.Fprintf(os.Stderr, "netscatter-bench: -best must be >= 1\n")
		os.Exit(1)
	}

	// testing.Benchmark honors the package-level benchtime flag.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "netscatter-bench: set benchtime: %v\n", err)
		os.Exit(1)
	}

	report := Report{
		Tag:        *tag,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		BenchTime:  benchtime.String(),
		BestOf:     *best,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	for pass := 0; pass < *best; pass++ {
		if *best > 1 {
			fmt.Printf("pass %d/%d\n", pass+1, *best)
		}
		for i, bm := range benchmarks() {
			fmt.Printf("%-44s", bm.name)
			r := testing.Benchmark(bm.fn)
			res := Result{
				Name:        bm.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			fmt.Printf("%14.0f ns/op %8d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
			if pass == 0 {
				report.Results = append(report.Results, res)
				continue
			}
			// Keep the fastest pass per benchmark; allocation counts are
			// deterministic across passes, so min ns/op picks the
			// least-noise timing without mixing rows.
			if res.NsPerOp < report.Results[i].NsPerOp {
				report.Results[i] = res
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	path := filepath.Join(*out, fmt.Sprintf("BENCH_%s.json", *tag))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

type namedBench struct {
	name string
	fn   func(*testing.B)
}

// benchmarks mirrors the key cases of the repository benchmark suite
// (bench_test.go) so the JSON trajectory tracks the same hot paths the
// test suite guards.
func benchmarks() []namedBench {
	p := chirp.Default500k9
	book, err := core.NewCodeBook(p, 2)
	if err != nil {
		panic(err)
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

	var bms []namedBench
	for _, candidates := range []int{1, 64, 256} {
		shifts := book.AllShifts()[:candidates]
		bms = append(bms, namedBench{
			name: fmt.Sprintf("DecoderScaling/candidates=%d", candidates),
			fn: func(b *testing.B) {
				dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := dec.DecodeFrame(sig, 0, shifts, bits); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	bms = append(bms, namedBench{
		name: "DecoderScaling/candidates=256/parallel",
		fn: func(b *testing.B) {
			dec := core.NewParallelDecoder(book, core.DefaultDecoderConfig(2), 0)
			shifts := book.AllShifts()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dec.DecodeFrame(sig, 0, shifts, bits); err != nil {
					b.Fatal(err)
				}
			}
		},
	})

	bms = append(bms, namedBench{
		name: "SymbolSpectrum",
		fn: func(b *testing.B) {
			dem := chirp.NewDemodulator(p, 8)
			mod := chirp.NewModulator(p)
			sym := mod.Symbol(37)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dem.Spectrum(sym)
			}
		},
	})

	bms = append(bms, namedBench{
		name: "FFT4096",
		fn: func(b *testing.B) {
			plan := dsp.Plan(4096)
			buf := make([]complex128, 4096)
			r := dsp.NewRand(1)
			for i := range buf {
				buf[i] = r.ComplexNormal(1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Forward(buf)
			}
		},
	})
	bms = append(bms, namedBench{
		name: "FFT4096Pruned",
		fn: func(b *testing.B) {
			plan := dsp.Plan(4096)
			buf := make([]complex128, 4096)
			r := dsp.NewRand(1)
			for i := 0; i < 512; i++ {
				buf[i] = r.ComplexNormal(1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.ForwardPruned(buf, 512)
			}
		},
	})

	bms = append(bms, namedBench{
		name: "FFT4096PrunedBatch",
		fn: func(b *testing.B) {
			bp := dsp.PlanBatch(4096, 512)
			re := make([]float64, 4096)
			im := make([]float64, 4096)
			r := dsp.NewRand(1)
			for i := 0; i < 512; i++ {
				v := r.ComplexNormal(1)
				re[i] = real(v)
				im[i] = imag(v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bp.Forward(re, im)
			}
		},
	})
	bms = append(bms, namedBench{
		name: "ScanBatch48",
		fn: func(b *testing.B) {
			dem := chirp.NewDemodulator(p, 8)
			const nSyms = 48
			mod := chirp.NewModulator(p)
			n := p.N()
			scanSig := make([]complex128, (nSyms+1)*n)
			r := dsp.NewRand(2)
			for i := range scanSig {
				scanSig[i] = r.ComplexNormal(1)
			}
			for s := 0; s < nSyms; s++ {
				for i, v := range mod.Symbol(s * 7 % n) {
					scanSig[s*n+i] += v * 2
				}
			}
			centers := make([]int, 64)
			for i := range centers {
				centers[i] = (i * 8 * dem.ZeroPad()) % dem.PaddedBins()
			}
			scanOut := make([]float64, len(centers)*nSyms)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dem.ScanBatch(scanSig, 0, 0, nSyms, centers, 2, scanOut, nSyms, nil)
			}
		},
	})

	bms = append(bms, namedBench{
		name: "EncodeFrameDelayedInto",
		fn: func(b *testing.B) {
			enc := core.NewEncoder(p, 42)
			bits := core.FrameBits(payload)
			dst := enc.FrameBitsWaveformDelayedInto(nil, bits, 0.37)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = enc.FrameBitsWaveformDelayedInto(dst, bits, 0.37)
			}
		},
	})
	bms = append(bms, namedBench{
		name: "EncodeFrameMixedInto",
		fn: func(b *testing.B) {
			enc := core.NewEncoder(p, 42)
			bits := core.FrameBits(payload)
			dst := enc.FrameBitsWaveformMixedInto(nil, bits, 0.37, 230, complex(1.4, -0.3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = enc.FrameBitsWaveformMixedInto(dst, bits, 0.37, 230, complex(1.4, -0.3))
			}
		},
	})

	bms = append(bms, namedBench{
		name: "NoiseFill64k",
		fn: func(b *testing.B) {
			st := dsp.NewStream(1)
			noiseSig := make([]complex128, 32768)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				radio.AddAWGN(st, noiseSig, 1)
			}
		},
	})

	bms = append(bms, namedBench{
		// One 64-device round heard by a single AP: the simulator's
		// single-AP round on the multi-AP engine at k = 1.
		name: "NetworkRound64",
		fn: func(b *testing.B) {
			r := dsp.NewRand(9)
			dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, r)
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
		},
	})
	bms = append(bms, namedBench{
		// One 64-device round heard by two APs: shared-template fan-out
		// (synthesis once, per-AP scaling), two tiled receives, two
		// parallel decodes and the cross-AP aggregation. Steady state is
		// allocation-free like the single-AP round; the interesting
		// ratio is this against NetworkRound64 — the marginal cost of an
		// extra AP is the scaled accumulate + decode, not re-synthesis.
		name: "MultiAPRound64x2",
		fn: func(b *testing.B) {
			r := dsp.NewRand(9)
			dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, r)
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
		},
	})
	bms = append(bms, namedBench{
		// The 64-device round heard by four APs with soft spectral
		// combining on: four emit decodes filling the planar spectra
		// arenas, the bin-wise arena sum, the combined-spectra decode
		// and both aggregations. The ratio against MultiAPRound64x2 is
		// the soft path's overhead.
		name: "CombinedRound64x4",
		fn: func(b *testing.B) {
			r := dsp.NewRand(9)
			dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, r)
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
		},
	})
	bms = append(bms, namedBench{
		// The 64-device, 2-AP round stepped through the adversity layer
		// in its event-free steady state: correlated fading and CFO
		// drift evolve per round, the power rule re-adjusts every
		// device, but no churn/burst/dropout events fire. The delta
		// against MultiAPRound64x2 is the trajectory layer's overhead.
		name: "TrajectoryRound64",
		fn: func(b *testing.B) {
			r := dsp.NewRand(9)
			dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, r)
			dep.PlaceAPs(2)
			cfg := sim.DefaultConfig()
			net, err := sim.NewMultiAPNetwork(cfg, dep, 2, 64, 10)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := sim.NewTrajectory(net, sim.TrajectoryConfig{
				Rounds:      1 << 15,
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
		},
	})
	bms = append(bms, namedBench{
		// The single-AP round's template fan-out, tile grid and batched
		// decoder fan across a four-slot pool, bit-identical to the
		// serial round (test-enforced). On a single hardware thread
		// this records the parallel path's overhead floor; on
		// multi-core machines it records round-time scaling with cores.
		name: "NetworkRound64/parallel",
		fn: func(b *testing.B) {
			prev := runtime.GOMAXPROCS(4)
			defer runtime.GOMAXPROCS(prev)
			r := dsp.NewRand(9)
			dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 64, 500e3, r)
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
		},
	})
	return bms
}
