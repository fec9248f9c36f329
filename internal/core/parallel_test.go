package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// buildConcurrentFrame synthesizes a received stream with nDev concurrent
// devices under timing/frequency offsets, returning the signal, shifts
// and payload bit length.
func buildConcurrentFrame(t testing.TB, p chirp.Params, skip, nDev int, seed int64) (*CodeBook, []complex128, []int, int) {
	t.Helper()
	book, err := NewCodeBook(p, skip)
	if err != nil {
		t.Fatal(err)
	}
	if nDev > book.Slots() {
		nDev = book.Slots()
	}
	rng := dsp.NewRand(seed)
	payloadBytes := 3
	bitsLen := payloadBytes*8 + CRCBits
	var txs []air.Transmission
	shifts := make([]int, nDev)
	for i := 0; i < nDev; i++ {
		shifts[i] = book.ShiftOfSlot(i)
		enc := NewEncoder(p, shifts[i])
		pl := rng.Bytes(payloadBytes)
		txs = append(txs, air.Transmission{
			Delayed: func(frac float64) []complex128 {
				return enc.FrameWaveformDelayed(pl, frac)
			},
			SNRdB:        rng.Uniform(3, 10),
			DelaySec:     rng.Uniform(0, 0.4) / p.BW,
			FreqOffsetHz: rng.Normal(0, 200),
		})
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2), txs)
	return book, sig, shifts, bitsLen
}

// snapshotDecode deep-copies a FrameDecode out of the decoder's arenas.
func snapshotDecode(res *FrameDecode) FrameDecode {
	out := *res
	out.Devices = make([]DeviceDecode, len(res.Devices))
	for i, dev := range res.Devices {
		cp := dev
		cp.Bits = append([]byte(nil), dev.Bits...)
		cp.Payload = append([]byte(nil), dev.Payload...)
		if dev.Payload == nil {
			cp.Payload = nil
		}
		if dev.Bits == nil {
			cp.Bits = nil
		}
		out.Devices[i] = cp
	}
	return out
}

func decodesEqual(a, b FrameDecode) error {
	if a.Start != b.Start || a.FFTs != b.FFTs || a.NoiseBinPower != b.NoiseBinPower {
		return fmt.Errorf("header mismatch: %+v vs %+v",
			FrameDecode{Start: a.Start, FFTs: a.FFTs, NoiseBinPower: a.NoiseBinPower},
			FrameDecode{Start: b.Start, FFTs: b.FFTs, NoiseBinPower: b.NoiseBinPower})
	}
	if len(a.Devices) != len(b.Devices) {
		return fmt.Errorf("device count %d vs %d", len(a.Devices), len(b.Devices))
	}
	for i := range a.Devices {
		da, db := a.Devices[i], b.Devices[i]
		if da.Shift != db.Shift || da.Detected != db.Detected || da.CRCOK != db.CRCOK ||
			da.MeanPeakPower != db.MeanPeakPower || da.ObservedBin != db.ObservedBin {
			return fmt.Errorf("device %d mismatch: %+v vs %+v", i, da, db)
		}
		if !bytes.Equal(da.Bits, db.Bits) {
			return fmt.Errorf("device %d bits differ", i)
		}
		if !bytes.Equal(da.Payload, db.Payload) {
			return fmt.Errorf("device %d payload differs", i)
		}
	}
	return nil
}

// sweepProcs are the GOMAXPROCS values the decoder's output is pinned
// at: the inline path, even and odd pool widths, and more workers than
// a frame's preamble batches.
var sweepProcs = []int{1, 2, 3, 4, 7}

// checkDecodeAcrossGOMAXPROCS decodes SF-7 frames of 24 devices over
// SKIP 1, 2 and 4 and four seeds, at every sweepProcs width, and
// requires DecodeFrame and DecodeFrameEmit to equal DecodeFrameOracle
// field for field and bit for bit, DecodeFrameSpectra over the emitted
// rows to equal it too (but for its FFT count of 0), and every width's
// emitted rows to equal the inline path's (items fill disjoint rows of
// one layout). 24 candidates make two candidate ranges, a full one and
// a short one, so a range boundary that drops or repeats a candidate
// fails against the oracle's one whole-set pass.
// noiseFloor selects the calibrated floor (N per padded bin, whose
// window plan prunes the transforms) over the quantile estimate.
func checkDecodeAcrossGOMAXPROCS(t *testing.T, noiseFloor bool) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	for _, skip := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, skip, 24, seed*977)
			cfg := DefaultDecoderConfig(skip)
			if noiseFloor {
				cfg.NoiseFloor = float64(p.N())
			}
			oracle, err := NewDecoder(book, cfg).DecodeFrameOracle(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(oracle)
			if want.DetectedCount() == 0 {
				t.Fatalf("skip=%d seed=%d: oracle detected no devices; test inputs are too hard", skip, seed)
			}
			var inlineRows []float64
			for _, procs := range sweepProcs {
				runtime.GOMAXPROCS(procs)
				dec := NewDecoder(book, cfg)
				res, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				if err := decodesEqual(want, snapshotDecode(res)); err != nil {
					t.Fatalf("skip=%d seed=%d GOMAXPROCS=%d: DecodeFrame: %v", skip, seed, procs, err)
				}
				emit := make([]float64, dec.EmitLen(bitsLen))
				res, err = dec.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit)
				if err != nil {
					t.Fatal(err)
				}
				if err := decodesEqual(want, snapshotDecode(res)); err != nil {
					t.Fatalf("skip=%d seed=%d GOMAXPROCS=%d: DecodeFrameEmit: %v", skip, seed, procs, err)
				}
				if inlineRows == nil {
					inlineRows = emit
				} else if !reflect.DeepEqual(emit, inlineRows) {
					t.Fatalf("skip=%d seed=%d GOMAXPROCS=%d: emitted rows differ from GOMAXPROCS 1", skip, seed, procs)
				}
				// The spectra path over the emitted rows runs the same
				// fold and finish items and performs no transform.
				res, err = NewDecoder(book, cfg).DecodeFrameSpectra(emit, 1, shifts, bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				wantSpectra := want
				wantSpectra.FFTs = 0
				if err := decodesEqual(wantSpectra, snapshotDecode(res)); err != nil {
					t.Fatalf("skip=%d seed=%d GOMAXPROCS=%d: DecodeFrameSpectra: %v", skip, seed, procs, err)
				}
			}
		}
	}
}

// TestDecodeFrameParallelBitExact is the pooled decode's contract with
// the quantile noise estimate: the same FrameDecode as the
// single-symbol oracle at every pool width.
func TestDecodeFrameParallelBitExact(t *testing.T) { checkDecodeAcrossGOMAXPROCS(t, false) }

// TestDecodeFrameParallelCalibratedNoiseFloor is the same sweep with the
// NoiseFloor > 0 branch (the simulator's calibrated path, with a
// pruning window plan).
func TestDecodeFrameParallelCalibratedNoiseFloor(t *testing.T) {
	checkDecodeAcrossGOMAXPROCS(t, true)
}

// TestDecodeFrameParallelReuse runs one decoder at GOMAXPROCS 4 across
// different frame shapes, to exercise arena regrowth and result reset
// against a fresh decoder's output.
func TestDecodeFrameParallelReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 42)
	dec := NewDecoder(book, DefaultDecoderConfig(2))

	// Shrinking candidate sets, then growing again.
	for _, k := range []int{16, 3, 1, 16} {
		fresh, err := NewDecoder(book, DefaultDecoderConfig(2)).DecodeFrame(sig, 0, shifts[:k], bitsLen)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotDecode(fresh)
		res, err := dec.DecodeFrame(sig, 0, shifts[:k], bitsLen)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodesEqual(want, snapshotDecode(res)); err != nil {
			t.Fatalf("candidates=%d: %v", k, err)
		}
	}
}

func TestDecodeFrameParallelBoundsError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	book, err := NewCodeBook(chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecoder(book, DefaultDecoderConfig(2)).DecodeFrame(make([]complex128, 10), 0, []int{0}, 8); err == nil {
		t.Error("out-of-bounds frame accepted")
	}
}

// TestDecodeFrameSteadyStateZeroAlloc asserts the decoder's
// allocation-free claim as a regular test, so a regression fails tier-1
// rather than only drifting a benchmark number. At GOMAXPROCS 1 the
// pool runs the symbol batches inline. At GOMAXPROCS 2 its helpers run
// them, and the test counts mallocs itself (testing.AllocsPerRun forces
// GOMAXPROCS 1); the bound of 0.1 per decode leaves room for a stray
// runtime allocation and none for per-call state.
func TestDecodeFrameSteadyStateZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 24, 9)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	decode := func() {
		if _, err := dec.DecodeFrame(sig, 0, shifts, bitsLen); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the arenas, the scratch free list and the pool's jobs and
	// helpers to their high-water marks.
	for range 200 {
		decode()
	}
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Fatalf("steady-state DecodeFrame at GOMAXPROCS 1 allocates %.1f objects/op, want 0", allocs)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	if perCall := float64(after.Mallocs-before.Mallocs) / runs; perCall >= 0.1 {
		t.Fatalf("steady-state DecodeFrame at GOMAXPROCS 2 allocates %.2f objects/op, want 0", perCall)
	}
}
