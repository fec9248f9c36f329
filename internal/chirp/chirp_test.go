package chirp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"netscatter/internal/dsp"
)

var tp = Params{SF: 7, BW: 125e3, Oversample: 1}

func TestParamsDerivedQuantities(t *testing.T) {
	p := Default500k9
	if p.Chips() != 512 || p.N() != 512 {
		t.Fatalf("chips/N = %d/%d", p.Chips(), p.N())
	}
	if got := p.SymbolPeriod(); math.Abs(got-1.024e-3) > 1e-9 {
		t.Errorf("symbol period = %v", got)
	}
	if got := p.BinHz(); math.Abs(got-976.5625) > 1e-9 {
		t.Errorf("bin width = %v", got)
	}
	if got := p.OOKBitRate(); math.Abs(got-976.5625) > 1e-9 {
		t.Errorf("OOK bitrate = %v", got)
	}
	if got := p.LoRaBitRate(); math.Abs(got-8789.0625) > 1e-9 {
		t.Errorf("LoRa bitrate = %v", got)
	}
	// Table 1 tolerances at SKIP=2.
	if got := p.TimeToleranceSec(2); math.Abs(got-2e-6) > 1e-12 {
		t.Errorf("time tolerance = %v", got)
	}
	if got := p.FreqToleranceHz(2); math.Abs(got-976.5625) > 1e-9 {
		t.Errorf("freq tolerance = %v", got)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{SF: 4, BW: 500e3},
		{SF: 13, BW: 500e3},
		{SF: 9, BW: 0},
		{SF: 9, BW: 500e3, Oversample: 3},
		{SF: 9, BW: 500e3, Oversample: 16},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", p)
		}
	}
	if err := Default500k9.Validate(); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestOffsetConversions(t *testing.T) {
	p := Default500k9
	// §3.2.1: ΔFFTbin = Δt·BW.
	if got := p.TimeOffsetToBins(2e-6); math.Abs(got-1) > 1e-12 {
		t.Errorf("2us at 500kHz = %v bins, want 1", got)
	}
	// §3.2.2: ΔFFTbin = 2^SF·Δf/BW.
	if got := p.FreqOffsetToBins(976.5625); math.Abs(got-1) > 1e-9 {
		t.Errorf("976.6Hz = %v bins, want 1", got)
	}
	f := func(raw float64) bool {
		bins := math.Mod(raw, 100)
		return math.Abs(p.FreqOffsetToBins(bins*p.BinHz())-bins) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpchirpUnitModulus(t *testing.T) {
	for _, v := range Upchirp(tp) {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatal("upchirp sample not unit modulus")
		}
	}
}

func TestDownchirpIsConjugate(t *testing.T) {
	up, down := Upchirp(tp), Downchirp(tp)
	for i := range up {
		if cmplx.Abs(down[i]-cmplx.Conj(up[i])) > 1e-12 {
			t.Fatal("downchirp is not the conjugate upchirp")
		}
	}
}

func TestDechirpedBaselineIsDC(t *testing.T) {
	// Upchirp × downchirp = constant frequency at bin 0 (Fig. 3a).
	dem := NewDemodulator(tp, 1)
	bin := demodSymbol(dem, Upchirp(tp))
	if bin != 0 {
		t.Fatalf("baseline dechirps to bin %d, want 0", bin)
	}
}

func TestCyclicShiftMapsToBin(t *testing.T) {
	// Core CSS property (§2.1): cyclic shift c -> FFT bin c.
	mod := NewModulator(tp)
	dem := NewDemodulator(tp, 1)
	for _, shift := range []int{0, 1, 5, 64, 100, 127} {
		bin := demodSymbol(dem, mod.Symbol(shift))
		if bin != shift {
			t.Fatalf("shift %d demodulated to bin %d", shift, bin)
		}
	}
}

func TestCyclicShiftQuickAllShifts(t *testing.T) {
	mod := NewModulator(tp)
	dem := NewDemodulator(tp, 1)
	f := func(raw uint8) bool {
		shift := int(raw) % tp.N()
		bin := demodSymbol(dem, mod.Symbol(shift))
		return bin == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFreqOffsetMovesPeak(t *testing.T) {
	// A frequency offset of k bins moves the dechirped peak k bins
	// (Fig. 3b) — the aliasing equivalence of time and frequency
	// shifts.
	mod := NewModulator(tp)
	dem := NewDemodulator(tp, 8)
	sym := mod.Symbol(10)
	ApplyFreqOffset(sym, 3*tp.BinHz(), tp.SampleRate())
	frac := peakBin(dem, sym)
	if math.Abs(frac-13) > 0.1 {
		t.Fatalf("peak at %v, want 13", frac)
	}
}

func TestFreqOffsetAliasesAcrossNyquist(t *testing.T) {
	// Shifting past the band edge wraps around (Fig. 3c).
	mod := NewModulator(tp)
	dem := NewDemodulator(tp, 8)
	sym := mod.Symbol(120)
	ApplyFreqOffset(sym, 20*tp.BinHz(), tp.SampleRate())
	frac := peakBin(dem, sym)
	if math.Abs(frac-12) > 0.1 { // 120+20 mod 128
		t.Fatalf("peak at %v, want 12", frac)
	}
}

func TestEvalShiftedMatchesSampledSymbol(t *testing.T) {
	mod := NewModulator(tp)
	for _, shift := range []int{0, 7, 100} {
		sym := mod.Symbol(shift)
		for i := 0; i < tp.N(); i += 13 {
			want := sym[i]
			got := EvalShifted(tp, shift, float64(i))
			if cmplx.Abs(got-want) > 1e-9 {
				t.Fatalf("shift %d sample %d: eval %v != table %v", shift, i, got, want)
			}
		}
	}
}

func TestEvalShiftedMatchesAggregateSymbol(t *testing.T) {
	p := Params{SF: 6, BW: 125e3, Oversample: 2}
	mod := NewModulator(p)
	for _, shift := range []int{0, 5, 70, 127} {
		sym := mod.Symbol(shift)
		for i := 0; i < p.N(); i += 11 {
			if cmplx.Abs(EvalShifted(p, shift, float64(i))-sym[i]) > 1e-9 {
				t.Fatalf("aggregate shift %d sample %d mismatch", shift, i)
			}
		}
	}
}

func TestAggregateShiftsSpanDoubleBand(t *testing.T) {
	// Oversample=2 doubles the shift space: one FFT decodes 2·2^SF
	// shifts (Fig. 5).
	p := Params{SF: 6, BW: 125e3, Oversample: 2}
	mod := NewModulator(p)
	dem := NewDemodulator(p, 1)
	if p.N() != 128 {
		t.Fatalf("shifts = %d, want 128", p.N())
	}
	for _, shift := range []int{0, 32, 63, 64, 100, 127} {
		bin := demodSymbol(dem, mod.Symbol(shift))
		if bin != shift {
			t.Fatalf("aggregate shift %d -> bin %d", shift, bin)
		}
	}
}

func TestSpectrumPanicsOnBadLength(t *testing.T) {
	dem := NewDemodulator(tp, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short symbol")
		}
	}()
	dem.Spectrum(make([]complex128, 7))
}

func TestPeakNearWindow(t *testing.T) {
	mod := NewModulator(tp)
	dem := NewDemodulator(tp, 8)
	spec := dem.Spectrum(mod.Symbol(40))
	pw, at := PeakNear(dem, spec, 40, 1)
	if math.Abs(at-40) > 0.01 {
		t.Fatalf("peak at %v", at)
	}
	if pw < 1000 {
		t.Fatalf("peak power %v too small", pw)
	}
	// A window far from the peak sees only (zero) floor.
	pwFar, _ := PeakNear(dem, spec, 100, 1)
	if pwFar > pw/100 {
		t.Fatalf("far window power %v vs peak %v", pwFar, pw)
	}
}

func TestScale(t *testing.T) {
	sig := []complex128{1, 2i}
	Scale(sig, 3)
	if sig[0] != 3 || sig[1] != 6i {
		t.Fatalf("Scale = %v", sig)
	}
}

func TestModulatorAppendHelpers(t *testing.T) {
	mod := NewModulator(tp)
	w := mod.AppendSymbol(make([]complex128, 3), 5)
	if len(w) != 3+tp.N() {
		t.Fatalf("waveform length %d", len(w))
	}
	for i, v := range mod.Symbol(5) {
		if w[3+i] != v {
			t.Fatalf("appended sample %d = %v, want Symbol's %v", i, w[3+i], v)
		}
	}
}

// demodSymbol is classic single-transmitter LoRa demodulation (§2.1):
// the integer chirp bin nearest the strongest peak of sym's spectrum.
func demodSymbol(dem *Demodulator, sym []complex128) int {
	idx, _ := dsp.ArgmaxFloat(dem.Spectrum(sym))
	return dsp.WrapIndex(int(dem.BinOf(idx)+0.5), dem.p.N())
}

// peakBin is the fractional chirp bin of the strongest peak in sym's
// padded spectrum, at the demodulator's 1/ZeroPad resolution.
func peakBin(dem *Demodulator, sym []complex128) float64 {
	idx, _ := dsp.ArgmaxFloat(dem.Spectrum(sym))
	return dem.BinOf(idx)
}
