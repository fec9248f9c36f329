package chirp

import (
	"fmt"
	"sync"
	"testing"

	"netscatter/internal/dsp"
)

// batchTestSignal builds a multi-symbol test signal: a few shifted
// symbols plus noise, long enough for nSyms symbols at an offset.
func batchTestSignal(p Params, nSyms int, seed int64) []complex128 {
	rng := dsp.NewRand(seed)
	mod := NewModulator(p)
	n := p.N()
	sig := make([]complex128, (nSyms+2)*n)
	for i := range sig {
		sig[i] = rng.ComplexNormal(1)
	}
	for s := 0; s < nSyms; s++ {
		sym := mod.Symbol((s*37 + 11) % p.N())
		for i, v := range sym {
			sig[s*n+n/2+i] += v * complex(2.5, 0.4)
		}
	}
	return sig
}

// windowPlan is the bin plan of ±half windows around the non-negative
// centres.
func windowPlan(bins int, centers []int, half int) *dsp.BinPlan {
	var live []int
	for _, c := range centers {
		if c >= 0 {
			live = append(live, c)
		}
	}
	plan := new(dsp.BinPlan)
	plan.SetWindows(bins, live, half)
	return plan
}

// TestSpectraBatchBitExact requires the planar batch spectra to be
// bit-identical to the single-symbol Spectrum oracle across SF and
// zero-pad combinations, including tiles larger than one batch pass —
// at every bin without a plan, and at every plan bin with a window
// plan (which prunes every butterfly pass after the first stage).
func TestSpectraBatchBitExact(t *testing.T) {
	for _, sf := range []int{7, 9} {
		for _, zp := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("sf=%d/zeropad=%d", sf, zp), func(t *testing.T) {
				p := Params{SF: sf, BW: 125e3, Oversample: 1}
				const nSyms = 11 // crosses the 8-symbol tile boundary
				sig := batchTestSignal(p, nSyms, int64(sf*100+zp))
				n := p.N()

				dem := NewDemodulator(p, zp)
				oracle := NewDemodulator(p, zp)
				bins := dem.PaddedBins()
				for _, plan := range []*dsp.BinPlan{nil, windowPlan(bins, []int{1, bins / 3, bins - 2}, 5*zp)} {
					specs := make([]float64, nSyms*bins)
					dem.SpectraBatchInto(specs, sig, 3, nSyms, plan)
					for s := 0; s < nSyms; s++ {
						want := oracle.Spectrum(sig[3+s*n : 3+(s+1)*n])
						for k := range want {
							if plan.Contains(k) && specs[s*bins+k] != want[k] {
								t.Fatalf("full=%v symbol %d bin %d: batch %g != oracle %g", plan.Full(), s, k, specs[s*bins+k], want[k])
							}
						}
					}
				}
			})
		}
	}
}

// TestScanBatchBitExact requires the fused dechirp+FFT+window scan to
// write exactly the peak powers the Spectrum + ScanPaddedCenters
// pipeline produces, in the decoder's candidate-major layout, skipping
// negative centers — across zero-pad factors and window widths,
// including windows that straddle the circular boundary.
func TestScanBatchBitExact(t *testing.T) {
	for _, tc := range []struct{ sf, zp int }{{7, 1}, {7, 8}, {9, 8}} {
		for _, half := range []int{0, 2, 7} {
			sf, zp := tc.sf, tc.zp
			name := fmt.Sprintf("zeropad=%d/half=%d", zp, half)
			if sf != 7 {
				name = fmt.Sprintf("sf=%d/%s", sf, name)
			}
			t.Run(name, func(t *testing.T) {
				p := Params{SF: sf, BW: 125e3, Oversample: 1}
				const nSyms = 10
				sig := batchTestSignal(p, nSyms, int64(sf*100+zp*10+half))
				n := p.N()

				dem := NewDemodulator(p, zp)
				oracle := NewDemodulator(p, zp)
				bins := dem.PaddedBins()
				centers := []int{0, 5 * zp, -1, bins - 1, bins / 2, -1, 17 % bins}
				const stride = nSyms + 3

				sentinel := -123.456
				want := make([]float64, len(centers)*stride)
				for i := range want {
					want[i] = sentinel
				}
				scan := make([]float64, len(centers))
				for s := 0; s < nSyms; s++ {
					spec := oracle.Spectrum(sig[2+s*n : 2+(s+1)*n])
					ScanPaddedCenters(spec, centers, half, scan)
					for i, c := range centers {
						if c >= 0 {
							want[i*stride+s] = scan[i]
						}
					}
				}
				// Without a plan, and with the plan of exactly the
				// scanned windows (every butterfly pass then runs only
				// the groups that reach them).
				for _, plan := range []*dsp.BinPlan{nil, windowPlan(bins, centers, half)} {
					got := make([]float64, len(centers)*stride)
					for i := range got {
						got[i] = sentinel
					}
					dem.ScanBatch(sig, 2, 0, nSyms, centers, half, got, stride, plan)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("full=%v arena cell %d: batch %g != oracle %g", plan.Full(), i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestScanBatchOffsetColumns checks that firstSym offsets land in the
// right arena columns (the parallel decoder hands workers disjoint
// symbol ranges of one arena).
func TestScanBatchOffsetColumns(t *testing.T) {
	p := Params{SF: 7, BW: 125e3, Oversample: 1}
	const nSyms = 9
	sig := batchTestSignal(p, nSyms, 5)

	centers := []int{3, 40, 99}
	whole := NewDemodulator(p, 2)
	split := NewDemodulator(p, 2)

	a := make([]float64, len(centers)*nSyms)
	b := make([]float64, len(centers)*nSyms)
	whole.ScanBatch(sig, 0, 0, nSyms, centers, 3, a, nSyms, nil)
	// Same symbols, scanned as two separate batches with symbol offsets.
	split.ScanBatch(sig, 0, 0, 4, centers, 3, b, nSyms, nil)
	split.ScanBatch(sig, 0, 4, nSyms-4, centers, 3, b, nSyms, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d: whole-batch %g != split-batch %g", i, a[i], b[i])
		}
	}
}

func BenchmarkScanBatch48(b *testing.B) {
	p := Default500k9
	const nSyms = 48
	sig := batchTestSignal(p, nSyms, 1)
	dem := NewDemodulator(p, 8)
	centers := make([]int, 64)
	for i := range centers {
		centers[i] = (i * 8 * dem.ZeroPad()) % dem.PaddedBins()
	}
	out := make([]float64, len(centers)*nSyms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dem.ScanBatch(sig, 0, 0, nSyms, centers, 2, out, nSyms, nil)
	}
}

// TestDemodulatorBatchCallsConcurrent drives SpectraBatchInto, ScanBatch
// and ScanBatchEmit on one Demodulator from four goroutines at once: the
// batch calls keep no per-call state on the demodulator (each borrows
// its planar tile from the dsp scratch free list), so every result must
// be bit-equal to the same call made serially — at every bin without a
// plan and at every plan bin with one. Run under -race.
func TestDemodulatorBatchCallsConcurrent(t *testing.T) {
	p := Params{SF: 9, BW: 125e3, Oversample: 1}
	const nSyms = 11 // crosses the 8-symbol tile boundary
	sig := batchTestSignal(p, nSyms, 31)
	dem := NewDemodulator(p, 8)
	bins := dem.PaddedBins()
	centers := []int{8, -1, bins / 3, bins - 4, bins / 2}
	const half = 6

	type results struct{ specs, scan, emitScan, emit []float64 }
	run := func(plan *dsp.BinPlan) results {
		r := results{
			specs:    make([]float64, nSyms*bins),
			scan:     make([]float64, len(centers)*nSyms),
			emitScan: make([]float64, len(centers)*nSyms),
			emit:     make([]float64, nSyms*bins),
		}
		dem.SpectraBatchInto(r.specs, sig, 5, nSyms, plan)
		dem.ScanBatch(sig, 5, 0, nSyms, centers, half, r.scan, nSyms, plan)
		dem.ScanBatchEmit(sig, 5, 0, nSyms, centers, half, r.emitScan, nSyms, r.emit, plan)
		return r
	}
	equal := func(plan *dsp.BinPlan, got, want results) error {
		for i := range want.specs {
			if plan.Contains(i%bins) && (got.specs[i] != want.specs[i] || got.emit[i] != want.emit[i]) {
				return fmt.Errorf("spectra bin %d: %g/%g, want %g/%g", i, got.specs[i], got.emit[i], want.specs[i], want.emit[i])
			}
		}
		for i := range want.scan {
			if got.scan[i] != want.scan[i] || got.emitScan[i] != want.emitScan[i] {
				return fmt.Errorf("scan cell %d: %g/%g, want %g/%g", i, got.scan[i], got.emitScan[i], want.scan[i], want.emitScan[i])
			}
		}
		return nil
	}

	for _, plan := range []*dsp.BinPlan{nil, windowPlan(bins, centers, 18)} {
		want := run(plan)
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3 && errs[g] == nil; rep++ {
					errs[g] = equal(plan, run(plan), want)
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("full=%v goroutine %d: %v", plan.Full(), g, err)
			}
		}
	}
}

// TestBatchOnlyDemodulatorOwnsNoScratch: a demodulator driven only
// through the batch calls — a parallel decoder's — allocates none of
// the single-symbol buffers; the first single-symbol call does.
func TestBatchOnlyDemodulatorOwnsNoScratch(t *testing.T) {
	p := Params{SF: 7, BW: 125e3, Oversample: 1}
	const nSyms = 3
	sig := batchTestSignal(p, nSyms, 5)
	dem := NewDemodulator(p, 8)
	bins := dem.PaddedBins()
	out := make([]float64, nSyms)
	dem.SpectraBatchInto(make([]float64, nSyms*bins), sig, 0, nSyms, nil)
	dem.ScanBatch(sig, 0, 0, nSyms, []int{8}, 2, out, nSyms, nil)
	dem.ScanBatchEmit(sig, 0, 0, nSyms, []int{8}, 2, out, nSyms, make([]float64, nSyms*bins), nil)
	if dem.padBuf != nil || dem.power != nil {
		t.Fatal("batch calls allocated single-symbol scratch")
	}
	dem.Spectrum(sig[:p.N()])
	if len(dem.padBuf) != bins || len(dem.power) != bins {
		t.Fatalf("single-symbol buffers %d/%d after Spectrum, want %d", len(dem.padBuf), len(dem.power), bins)
	}
}
