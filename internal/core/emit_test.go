package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// TestDecodeFrameEmitMatchesDecodeFrameRace pins the emit mode's core
// contract across the decodeConfigs matrix: DecodeFrameEmit (serial and
// parallel) produces FrameDecodes bit-identical to DecodeFrame —
// emitting spectra is a pure by-product — and the serial and parallel
// emitted arenas are themselves bit-identical (workers fill disjoint
// rows of the same layout). The "Race" suffix opts the test into the CI
// race-detector pass, sweeping the emit fan-out for races.
func TestDecodeFrameEmitMatchesDecodeFrameRace(t *testing.T) {
	for ci, tc := range decodeConfigs {
		t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d", tc.p.SF, tc.skip, tc.zeroPad), func(t *testing.T) {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(1000+ci))
			cfg := DefaultDecoderConfig(tc.skip)
			cfg.ZeroPad = tc.zeroPad
			cfg.NoiseFloor = tc.noiseFloor

			base := NewDecoder(book, cfg)
			baseRes, err := base.DecodeFrame(sig, 0, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(baseRes)

			serial := NewDecoder(book, cfg)
			emit := make([]float64, serial.EmitLen(bitsLen))
			serialRes, err := serial.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(serialRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("serial emit decode diverges from DecodeFrame:\n got %+v\nwant %+v", got, want)
			}

			parallel := NewParallelDecoder(book, cfg, 4)
			emitPar := make([]float64, parallel.Serial().EmitLen(bitsLen))
			parRes, err := parallel.DecodeFrameEmit(sig, 0, shifts, bitsLen, emitPar)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(parRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel emit decode diverges from DecodeFrame:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(emit, emitPar) {
				t.Fatal("parallel emitted arena diverges from serial emitted arena")
			}
			if want.DetectedCount() == 0 {
				t.Fatal("decoder detected no devices; test inputs are too hard")
			}
		})
	}
}

// TestEmittedSpectraMatchMaterialized pins the emit arena's contents
// against the materializing path: every emitted row must be bit-equal to
// the power spectrum chirp.Demodulator.Spectrum computes for the same
// symbol — preamble upchirp rows first, then one row per payload symbol
// (the two preamble downchirps are skipped, per the EmitRows layout).
func TestEmittedSpectraMatchMaterialized(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, sig, shifts, bitsLen := buildConcurrentFrame(t, p, 2, 16, 77)
	cfg := DefaultDecoderConfig(2)

	dec := NewDecoder(book, cfg)
	emit := make([]float64, dec.EmitLen(bitsLen))
	if _, err := dec.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit); err != nil {
		t.Fatal(err)
	}

	ref := chirp.NewDemodulator(p, cfg.ZeroPad)
	n := p.N()
	bins := ref.PaddedBins()
	if want := EmitRows(bitsLen) * bins; len(emit) != want {
		t.Fatalf("EmitLen = %d, want %d", len(emit), want)
	}
	check := func(row int, symStart int) {
		spec := ref.Spectrum(sig[symStart : symStart+n])
		got := emit[row*bins : (row+1)*bins]
		for i := range spec {
			if got[i] != spec[i] {
				t.Fatalf("row %d bin %d: emitted %v, materialized %v", row, i, got[i], spec[i])
			}
		}
	}
	for sym := 0; sym < PreambleUpSymbols; sym++ {
		check(sym, sym*n)
	}
	payloadStart := PreambleSymbols * n
	for sym := 0; sym < bitsLen; sym++ {
		check(PreambleUpSymbols+sym, payloadStart+sym*n)
	}
}

// TestDecodeFrameSpectraSingleDegeneracy pins the tentpole's k=1
// contract: decoding one AP's emitted arena through DecodeFrameSpectra
// with nSummed = 1 is bit-identical to DecodeFrame on that AP's signal
// — same floats, same bits, same flags — except the FFTs count, which
// is 0 on the spectra path (it performs no transforms of its own).
func TestDecodeFrameSpectraSingleDegeneracy(t *testing.T) {
	for ci, tc := range decodeConfigs {
		t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d", tc.p.SF, tc.skip, tc.zeroPad), func(t *testing.T) {
			book, sig, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(4000+ci))
			cfg := DefaultDecoderConfig(tc.skip)
			cfg.ZeroPad = tc.zeroPad
			cfg.NoiseFloor = tc.noiseFloor

			emitter := NewDecoder(book, cfg)
			emit := make([]float64, emitter.EmitLen(bitsLen))
			emitRes, err := emitter.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit)
			if err != nil {
				t.Fatal(err)
			}
			want := snapshotDecode(emitRes)
			want.FFTs = 0
			want.Start = 0

			comb := NewDecoder(book, cfg)
			combRes, err := comb.DecodeFrameSpectra(emit, 1, shifts, bitsLen)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDecode(combRes); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=1 spectra decode diverges from signal decode:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestDecodeFrameSpectraErrors covers the argument contract.
func TestDecodeFrameSpectraErrors(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	shifts := []int{0}
	if _, err := dec.DecodeFrameSpectra(make([]float64, dec.EmitLen(8)), 0, shifts, 8); err == nil {
		t.Fatal("nSummed = 0 accepted")
	}
	if _, err := dec.DecodeFrameSpectra(make([]float64, dec.EmitLen(8)-1), 1, shifts, 8); err == nil {
		t.Fatal("short spectra arena accepted")
	}
	if _, err := dec.DecodeFrameEmit(nil, 0, shifts, 8, make([]float64, dec.EmitLen(8))); err == nil {
		t.Fatal("emit with empty signal accepted")
	}
}

// naiveEmit materializes the full DecodeFrameEmit layout of a signal
// through the single-symbol Spectrum path: every bin of every row.
func naiveEmit(p chirp.Params, zeroPad int, sig []complex128, payloadBits int) []float64 {
	dem := chirp.NewDemodulator(p, zeroPad)
	n := p.N()
	bins := dem.PaddedBins()
	out := make([]float64, EmitRows(payloadBits)*bins)
	for row := 0; row < EmitRows(payloadBits); row++ {
		at := row * n
		if row >= PreambleUpSymbols {
			at = (PreambleSymbols + row - PreambleUpSymbols) * n
		}
		copy(out[row*bins:(row+1)*bins], dem.Spectrum(sig[at:at+n]))
	}
	return out
}

// TestDecodeFrameSpectraWindowedSumMatchesFullSum pins the soft
// arena contract across the decodeConfigs matrix in both noise-floor
// modes: two APs' emitted arenas summed over the window plan only
// (bins outside it hold stale garbage) agree with the naive full sum
// at every plan bin, and DecodeFrameSpectra over the windowed sum
// equals DecodeFrameSpectra over the naive full sum.
func TestDecodeFrameSpectraWindowedSumMatchesFullSum(t *testing.T) {
	for ci, tc := range decodeConfigs {
		book, sigA, shifts, bitsLen := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(6000+ci))
		_, sigB, _, _ := buildConcurrentFrame(t, tc.p, tc.skip, 24, int64(7000+ci))
		for _, floor := range noiseFloors(tc.p, tc.noiseFloor) {
			t.Run(fmt.Sprintf("sf=%d/skip=%d/zeropad=%d/noisefloor=%g", tc.p.SF, tc.skip, tc.zeroPad, floor), func(t *testing.T) {
				cfg := DefaultDecoderConfig(tc.skip)
				cfg.ZeroPad = tc.zeroPad
				cfg.NoiseFloor = floor

				emitter := NewParallelDecoder(book, cfg, 2)
				emitLen := emitter.Serial().EmitLen(bitsLen)
				full := make([]float64, emitLen)
				windowed := make([]float64, emitLen)
				for i := range windowed {
					windowed[i] = math.Inf(1) // a read outside the plan would win its window
				}
				comb := NewDecoder(book, cfg)
				plan := comb.WindowPlan(shifts)
				for ap, sig := range [][]complex128{sigA, sigB} {
					emit := make([]float64, emitLen)
					if _, err := emitter.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit); err != nil {
						t.Fatal(err)
					}
					naive := naiveEmit(tc.p, tc.zeroPad, sig, bitsLen)
					if ap == 0 {
						plan.CopyRows(windowed, emit)
						copy(full, naive)
					} else {
						plan.AddRows(windowed, emit)
						for i, v := range naive {
							full[i] += v
						}
					}
				}
				bins := emitter.Serial().Demodulator().PaddedBins()
				for i := range full {
					if plan.Contains(i%bins) && windowed[i] != full[i] {
						t.Fatalf("plan bin %d: windowed sum %v, full sum %v", i, windowed[i], full[i])
					}
				}

				res, err := comb.DecodeFrameSpectra(windowed, 2, shifts, bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				got := snapshotDecode(res)
				ref, err := NewDecoder(book, cfg).DecodeFrameSpectra(full, 2, shifts, bitsLen)
				if err != nil {
					t.Fatal(err)
				}
				if want := snapshotDecode(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("decode of the windowed sum diverges from the full sum:\n got %+v\nwant %+v", got, want)
				}
				if got.DetectedCount() == 0 {
					t.Fatal("combined decode detected no devices; test inputs are too hard")
				}
			})
		}
	}
}

// TestWindowPlanCoversEdgeTrackWindows decodes devices whose carrier
// offsets (±0.85 bin) put their payload track windows past the
// preamble guard window: the payload centre sits 7 padded bins from
// the assigned bin, so the ±2-bin track window reaches 9 bins out,
// beyond the 8-bin guard, into the plan's extra trackHalf() margin.
// With a calibrated floor every decode path must still equal the
// oracle, and the spectra decode of an arena holding only plan bins
// (every other bin +Inf, which would win any window that read it) must
// equal the decode of the full arena.
func TestWindowPlanCoversEdgeTrackWindows(t *testing.T) {
	p := chirp.Params{SF: 9, BW: 500e3, Oversample: 1}
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(31)
	const payloadBytes = 3
	bitsLen := payloadBytes*8 + CRCBits
	shifts := []int{book.ShiftOfSlot(0), book.ShiftOfSlot(100)}
	var txs []air.Transmission
	for i, off := range []float64{0.85, -0.85} {
		enc := NewEncoder(p, shifts[i])
		pl := rng.Bytes(payloadBytes)
		txs = append(txs, air.Transmission{
			Delayed:      func(frac float64) []complex128 { return enc.FrameWaveformDelayed(pl, frac) },
			SNRdB:        12,
			FreqOffsetHz: off * p.BinHz(),
		})
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2), txs)

	cfg := DefaultDecoderConfig(2)
	cfg.NoiseFloor = float64(p.N())
	oracleRes, err := NewDecoder(book, cfg).DecodeFrameOracle(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotDecode(oracleRes)
	dec := NewDecoder(book, cfg)
	zp := dec.Demodulator().ZeroPad()
	for i, d := range want.Devices {
		centre := int(math.Round(d.ObservedBin * float64(zp)))
		if !d.CRCOK || abs(centre-shifts[i]*zp) != 7 {
			t.Fatalf("device %d: CRC %v, payload centre %d bins from its assigned bin, want a CRC-valid decode 7 bins out",
				i, d.CRCOK, centre-shifts[i]*zp)
		}
	}

	emit := make([]float64, dec.EmitLen(bitsLen))
	par := NewParallelDecoder(book, cfg, 2)
	emitPar := make([]float64, dec.EmitLen(bitsLen))
	for name, decode := range map[string]func() (*FrameDecode, error){
		"serial":        func() (*FrameDecode, error) { return dec.DecodeFrame(sig, 0, shifts, bitsLen) },
		"serial emit":   func() (*FrameDecode, error) { return dec.DecodeFrameEmit(sig, 0, shifts, bitsLen, emit) },
		"parallel emit": func() (*FrameDecode, error) { return par.DecodeFrameEmit(sig, 0, shifts, bitsLen, emitPar) },
	} {
		res, err := decode()
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshotDecode(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s decode diverges from oracle:\n got %+v\nwant %+v", name, got, want)
		}
	}

	poisoned := make([]float64, len(emit))
	for i := range poisoned {
		poisoned[i] = math.Inf(1)
	}
	dec.WindowPlan(shifts).CopyRows(poisoned, emit)
	res, err := NewDecoder(book, cfg).DecodeFrameSpectra(poisoned, 1, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewDecoder(book, cfg).DecodeFrameSpectra(naiveEmit(p, zp, sig, bitsLen), 1, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotDecode(res), snapshotDecode(full); !reflect.DeepEqual(got, want) {
		t.Fatalf("spectra decode of the plan bins diverges from the full arena:\n got %+v\nwant %+v", got, want)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
