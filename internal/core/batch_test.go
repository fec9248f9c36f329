package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/chirp"
)

// decodeConfigs are the (params, skip, zeroPad, noiseFloor) combinations
// the batch-vs-oracle equality is enforced over: both spreading factors
// the suite simulates, zero-pad factors from none to the deployment's 8,
// and both noise-floor modes (calibrated floor vs quantile estimation —
// the latter exercises the full-spectrum path of the preamble batch).
var decodeConfigs = []struct {
	p          chirp.Params
	skip       int
	zeroPad    int
	noiseFloor float64
}{
	{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 2, 1, 0},
	{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 2, 4, 0},
	{chirp.Params{SF: 7, BW: 125e3, Oversample: 1}, 3, 8, 128},
	{chirp.Params{SF: 9, BW: 500e3, Oversample: 1}, 2, 8, 0},
	{chirp.Params{SF: 9, BW: 500e3, Oversample: 1}, 8, 2, 512},
}

// noiseFloors returns the two noise-floor modes a decodeConfigs entry
// is checked in: quantile estimation (0, whose window plan is the
// whole row) and a calibrated floor (the entry's own, or N), whose
// window plan prunes the transforms and power passes.
func noiseFloors(p chirp.Params, noiseFloor float64) []float64 {
	if noiseFloor == 0 {
		noiseFloor = float64(p.N())
	}
	return []float64{0, noiseFloor}
}

// decodePath is one way through the batched decoder: DecodeFrame or
// DecodeFrameEmit at a given GOMAXPROCS.
type decodePath struct {
	name   string
	decode func() (*FrameDecode, error)
}

// decodePaths returns DecodeFrame and DecodeFrameEmit at GOMAXPROCS 1,
// where the pool runs the symbol batches inline, and at 4, where it
// fans them out. Each call decodes on a fresh decoder, so no arena
// holds a value an earlier decode of the same frame left, and leaves
// GOMAXPROCS as it found it.
func decodePaths(book *CodeBook, cfg DecoderConfig, sig []complex128, shifts []int, bitsLen int) []decodePath {
	var paths []decodePath
	for _, procs := range []int{1, 4} {
		for _, emit := range []bool{false, true} {
			name := fmt.Sprintf("GOMAXPROCS=%d frame", procs)
			if emit {
				name = fmt.Sprintf("GOMAXPROCS=%d emit", procs)
			}
			paths = append(paths, decodePath{name, func() (*FrameDecode, error) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dec := NewDecoder(book, cfg)
				if emit {
					return dec.DecodeFrameEmit(sig, 0, shifts, bitsLen, make([]float64, dec.EmitLen(bitsLen)))
				}
				return dec.DecodeFrame(sig, 0, shifts, bitsLen)
			}})
		}
	}
	return paths
}

// TestDecodeBatchMatchesOracleRace pins the decoder's core contract:
// the batched decode paths (DecodeFrame and DecodeFrameEmit, inline
// and fanned out) produce FrameDecodes that are bit-identical — every
// float, every bit, every flag — to the retained single-symbol oracle,
// across SF, SKIP, zero-pad and both noise-floor modes (so with and
// without a pruning window plan). The "Race" suffix opts the test into
// the CI race-detector pass, which sweeps the decoder's symbol-batch
// fan-out for data races at the same time.
func TestDecodeBatchMatchesOracleRace(t *testing.T) {
	for ci, tc := range decodeConfigs {
		t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d", tc.p.SF, tc.skip, tc.zeroPad), func(t *testing.T) {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(1000+ci))
			for _, floor := range noiseFloors(tc.p, tc.noiseFloor) {
				t.Run(fmt.Sprintf("noisefloor=%g", floor), func(t *testing.T) {
					cfg := DefaultDecoderConfig(tc.skip)
					cfg.ZeroPad = tc.zeroPad
					cfg.NoiseFloor = floor

					oracle := NewDecoder(book, cfg)
					oracleRes, err := oracle.DecodeFrameOracle(sig, 0, shifts, bitsLen)
					if err != nil {
						t.Fatal(err)
					}
					want := snapshotDecode(oracleRes)
					// Every path must decode at least one frame in these
					// configurations — equality against a decoder that
					// found nothing would be a hollow check.
					if want.DetectedCount() == 0 {
						t.Fatal("oracle detected no devices; test inputs are too hard")
					}

					for _, path := range decodePaths(book, cfg, sig, shifts, bitsLen) {
						res, err := path.decode()
						if err != nil {
							t.Fatal(err)
						}
						if got := snapshotDecode(res); !reflect.DeepEqual(got, want) {
							t.Fatalf("batched %s decode diverges from oracle:\n got %+v\nwant %+v", path.name, got, want)
						}
					}
				})
			}
		})
	}
}

// TestDecodeBatchOracleRepeatability re-runs the batched decoder on the
// same frame twice (arena reuse) and on a second frame with a different
// candidate set in between, so stale arena contents — or a stale window
// plan — from a previous call can never leak into a result without this
// test catching it.
func TestDecodeBatchOracleRepeatability(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 5)
	_, sig2, shifts2, bitsLen2 := buildConcurrentFrame(t, p, 2, 9, 6)
	// A candidate set of the same size whose windows sit elsewhere: a
	// plan cached by length alone would serve the wrong bins.
	shifts3 := append([]int(nil), shifts...)
	for i := range shifts3 {
		shifts3[i] = book.ShiftOfSlot(len(shifts) + i)
	}

	for _, floor := range noiseFloors(p, 0) {
		cfg := DefaultDecoderConfig(2)
		cfg.NoiseFloor = floor
		dec := NewDecoder(book, cfg)
		first, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotDecode(first)
		if _, err := dec.DecodeFrame(sig2, 0, shifts2, bitsLen2); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeFrame(sig, 0, shifts3, bitsLen); err != nil {
			t.Fatal(err)
		}
		again, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshotDecode(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("noisefloor=%g: arena reuse changed the decode:\n got %+v\nwant %+v", floor, got, want)
		}
	}
}
