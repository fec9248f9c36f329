package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// poisonScratch fills every buffer the dsp scratch free list will lend
// next with NaN: for each length it has lent, it borrows every idle
// buffer (at least four), poisons them and returns them all, so the
// next borrowers of each length — up to that many at once — get
// NaN-filled loans. A decode reading any scratch value it did not
// write in the same call then carries a NaN into its result.
func poisonScratch(t *testing.T) {
	t.Helper()
	for _, s := range dsp.ScratchStats() {
		bufs := make([][]float64, max(s.Free, 4))
		for i := range bufs {
			bufs[i] = dsp.BorrowFloat64(s.Len)
			for k := range bufs[i] {
				bufs[i][k] = math.NaN()
			}
		}
		for _, b := range bufs {
			dsp.ReturnFloat64(b)
		}
	}
}

// TestDecodePoisonedScratch pins the borrower rule that scratch
// contents never reach a result: with every buffer of the free list
// NaN-filled before each decode, DecodeFrame and DecodeFrameEmit at
// GOMAXPROCS 1 (inline) and 4 (fanned out) must still equal
// DecodeFrameOracle bit for bit, with a calibrated noise floor
// (window-planned transforms, which leave bins outside the plan
// unwritten) and with the quantile floor.
func TestDecodePoisonedScratch(t *testing.T) {
	for _, p := range []chirp.Params{{SF: 7, BW: 125e3, Oversample: 1}, {SF: 9, BW: 500e3, Oversample: 1}} {
		book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 24, int64(40+p.SF))
		for _, floor := range noiseFloors(p, 0) {
			t.Run(fmt.Sprintf("sf=%d/noisefloor=%g", p.SF, floor), func(t *testing.T) {
				cfg := DefaultDecoderConfig(2)
				cfg.NoiseFloor = floor
				oracleRes, err := NewDecoder(book, cfg).DecodeFrameOracle(sig, 0, shifts, bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				want := snapshotDecode(oracleRes)
				if want.DetectedCount() == 0 {
					t.Fatal("oracle detected no devices; test inputs are too hard")
				}

				paths := decodePaths(book, cfg, sig, shifts, bitsLen)
				// One pass first, so the free list has lent every length
				// these decodes borrow.
				for _, path := range paths {
					if _, err := path.decode(); err != nil {
						t.Fatal(err)
					}
				}
				for _, path := range paths {
					poisonScratch(t)
					res, err := path.decode()
					if err != nil {
						t.Fatal(err)
					}
					if got := snapshotDecode(res); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s decode over poisoned scratch diverges from oracle:\n got %+v\nwant %+v", path.name, got, want)
					}
				}
			})
		}
	}
}

// TestScratchRetentionBounded steps 32 decoders round-robin at
// GOMAXPROCS 2, as a service steps its tenants: after warm-up a pass
// allocates nothing, every loan is returned, and the free list holds no
// more buffers of any length than were ever on loan at once — which a
// single goroutine stepping decoders keeps far below the decoder count,
// however many decoders exist.
func TestScratchRetentionBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const decoders = 32
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 77)
	cfg := DefaultDecoderConfig(2)
	cfg.NoiseFloor = float64(p.N())
	decs := make([]*Decoder, decoders)
	for i := range decs {
		decs[i] = NewDecoder(book, cfg)
	}
	pass := func() {
		for _, d := range decs {
			if _, err := d.DecodeFrame(sig, 0, shifts, bitsLen); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("steady-state pass over %d decoders allocates %v/op, want 0", decoders, allocs)
	}
	for _, s := range dsp.ScratchStats() {
		if s.Lent != 0 || s.Free > s.Peak || s.Peak >= decoders {
			t.Errorf("scratch length %d: %d idle, %d on loan, peak %d on loan (%d decoders)", s.Len, s.Free, s.Lent, s.Peak, decoders)
		}
	}
}
