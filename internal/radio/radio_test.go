package radio

import (
	"math"
	"testing"

	"netscatter/internal/dsp"
)

func TestThermalNoise(t *testing.T) {
	// -174 dBm/Hz + 10log10(500kHz) + 6 = -111.0 dBm: the floor that
	// makes the paper's -123 dBm sensitivity a -12 dB demod SNR.
	got := ThermalNoiseDBm(500e3, 6)
	if math.Abs(got-(-111.01)) > 0.05 {
		t.Fatalf("noise floor = %v", got)
	}
}

func TestDopplerShift(t *testing.T) {
	// §4.2: 10 m/s at 900 MHz -> 30 Hz.
	got := DopplerShiftHz(10, 900e6)
	if math.Abs(got-30) > 0.1 {
		t.Fatalf("doppler = %v Hz", got)
	}
}

func TestAWGNPower(t *testing.T) {
	st := dsp.NewStream(1)
	sig := make([]complex128, 100000)
	AddAWGN(st, sig, 2.0)
	if got := meanPower(sig); math.Abs(got-2) > 0.05 {
		t.Fatalf("noise power = %v, want 2", got)
	}
}

// TestAWGNStreamMatchesNormBatchSequence pins the fused pass's draw order:
// AddAWGN consumes the stream exactly as 2·len(sig) NormBatch draws —
// real part first — scaled by √(power/2), so the fused fill+add is a
// pure optimization over the obvious two-pass implementation.
func TestAWGNStreamMatchesNormBatchSequence(t *testing.T) {
	a := dsp.StreamAt(7, 3)
	b := dsp.StreamAt(7, 3)
	const n = 1000 // odd block coverage: not a multiple of the fill block
	sig := make([]complex128, n)
	AddAWGN(&a, sig, 3.7)

	raw := make([]float64, 2*n)
	b.NormBatch(raw)
	s := math.Sqrt(3.7 / 2)
	for i := range sig {
		want := complex(s*raw[2*i], s*raw[2*i+1])
		if sig[i] != want {
			t.Fatalf("sample %d: %v, want %v", i, sig[i], want)
		}
	}
}

// TestAWGNStreamStatsMatchOracle compares the fused AWGN path's noise
// statistics against the retained math/rand oracle at the same power:
// matching power and per-component moments within a few standard
// errors.
func TestAWGNStreamStatsMatchOracle(t *testing.T) {
	const n = 200000
	const power = 2.5

	st := dsp.NewStream(5)
	sig := make([]complex128, n)
	AddAWGN(st, sig, power)

	rng := dsp.NewRand(5)
	ref := make([]complex128, n)
	AddAWGNOracle(rng, ref, power)

	stats := func(v []complex128) (pwr, meanRe, meanIm float64) {
		for _, x := range v {
			pwr += real(x)*real(x) + imag(x)*imag(x)
			meanRe += real(x)
			meanIm += imag(x)
		}
		return pwr / n, meanRe / n, meanIm / n
	}
	p1, mr1, mi1 := stats(sig)
	p2, mr2, mi2 := stats(ref)
	if math.Abs(p1-power) > 0.05 || math.Abs(p1-p2) > 0.1 {
		t.Fatalf("fused power %v vs oracle %v (want %v)", p1, p2, power)
	}
	for _, m := range []float64{mr1, mi1, mr2, mi2} {
		if math.Abs(m) > 0.02 {
			t.Fatalf("noise mean off zero: %v", m)
		}
	}
}

func TestAWGNZeroAlloc(t *testing.T) {
	st := dsp.NewStream(9)
	sig := make([]complex128, 4096)
	allocs := testing.AllocsPerRun(10, func() { AddAWGN(st, sig, 1) })
	if allocs != 0 {
		t.Fatalf("AddAWGN allocates %.1f objects/op", allocs)
	}
	var streams [dsp.ZigLanes]dsp.Stream
	var sts [dsp.ZigLanes]*dsp.Stream
	var sigs [dsp.ZigLanes][]complex128
	for l := range sts {
		streams[l] = dsp.StreamAt(9, uint64(l))
		sts[l], sigs[l] = &streams[l], make([]complex128, 4096-l)
	}
	allocs = testing.AllocsPerRun(10, func() { AddAWGNLanes(sts[:], sigs[:], 1) })
	if allocs != 0 {
		t.Fatalf("AddAWGNLanes allocates %.1f objects/op", allocs)
	}
}

func TestSuperpose(t *testing.T) {
	dst := make([]complex128, 5)
	n := Superpose(dst, []complex128{1, 1, 1}, 3)
	if n != 2 || dst[3] != 1 || dst[4] != 1 || dst[2] != 0 {
		t.Fatalf("Superpose tail: n=%d dst=%v", n, dst)
	}
	dst = make([]complex128, 5)
	n = Superpose(dst, []complex128{1, 1, 1}, -2)
	if n != 1 || dst[0] != 1 || dst[1] != 0 {
		t.Fatalf("Superpose negative offset: n=%d dst=%v", n, dst)
	}
}

func TestLogDistanceMonotonic(t *testing.T) {
	m := DefaultIndoor900MHz
	prev := -1.0
	for d := 1.0; d <= 50; d += 1 {
		loss := m.LossDB(d, 0)
		if loss <= prev {
			t.Fatalf("loss not monotonic at %v m", d)
		}
		prev = loss
	}
	if m.LossDB(10, 2)-m.LossDB(10, 0) != 2*m.WallLossDB {
		t.Fatal("wall loss not additive")
	}
	// Below the reference distance the loss is clamped.
	if m.LossDB(0.1, 0) != m.LossDB(1, 0) {
		t.Fatal("sub-reference distance not clamped")
	}
}

func TestLinkBudgetDirections(t *testing.T) {
	b := DefaultLinkBudget
	// Two-way loss makes the uplink far weaker than the downlink.
	down := b.DownlinkRSSIdBm(10, 1)
	up := b.UplinkRSSIdBm(10, 1, 0)
	if up >= down {
		t.Fatalf("uplink %v not weaker than downlink %v", up, down)
	}
	// Tag gain reduces the uplink 1:1.
	if diff := b.UplinkRSSIdBm(10, 1, 0) - b.UplinkRSSIdBm(10, 1, -10); math.Abs(diff-10) > 1e-9 {
		t.Fatalf("tag gain not 1:1: %v", diff)
	}
}

func TestLinkBudgetAGCCap(t *testing.T) {
	b := DefaultLinkBudget
	snrNear := b.UplinkSNRdB(5, 0, 0, 500e3)
	if snrNear > b.AGCCapDB+1e-9 {
		t.Fatalf("AGC cap violated: %v", snrNear)
	}
	// Backing off power keeps the same headroom below the cap.
	snrBack := b.UplinkSNRdB(5, 0, -10, 500e3)
	if math.Abs(snrNear-snrBack-10) > 1e-9 {
		t.Fatalf("cap does not preserve gain steps: %v vs %v", snrNear, snrBack)
	}
}

func TestFadingMeanPowerAndCorrelation(t *testing.T) {
	rng := dsp.NewRand(3)
	fp := NewFadingProcess(10, 0.95, rng)
	n := 200000
	var pwr float64
	for i := 0; i < n; i++ {
		h := fp.Step()
		pwr += real(h)*real(h) + imag(h)*imag(h)
	}
	if got := pwr / float64(n); math.Abs(got-1) > 0.1 {
		t.Fatalf("mean channel power = %v, want ~1", got)
	}
}

func TestSNRTraceVariance(t *testing.T) {
	rng := dsp.NewRand(4)
	trace := SNRTrace(10, 5000, 10, 0.98, rng)
	mean := dsp.Mean(trace)
	if math.Abs(mean-10) > 1.5 {
		t.Fatalf("trace mean = %v", mean)
	}
	sd := stdDev(trace)
	if sd < 0.3 || sd > 4 {
		t.Fatalf("trace stddev = %v, want the Fig. 9 band (~1-3 dB)", sd)
	}
}

func TestASKDuration(t *testing.T) {
	// The paper's Config 2 query: 1760 bits at 160 kbps = 11 ms.
	if got := DefaultASK.Duration(1760); math.Abs(got-0.011) > 1e-9 {
		t.Fatalf("1760-bit query duration = %v", got)
	}
}

func TestOscillatorOffsets(t *testing.T) {
	rng := dsp.NewRand(7)
	// Backscatter: 3 MHz subcarrier, so offsets stay under ~150 Hz
	// (Fig. 14a), ~90x smaller than the same crystal on a 900 MHz
	// radio (§2.2).
	for i := 0; i < 200; i++ {
		bo := NewBackscatterOscillator(rng, 20, 50)
		if math.Abs(bo.StaticOffsetHz()) > 150 {
			t.Fatalf("backscatter offset %v Hz exceeds 150", bo.StaticOffsetHz())
		}
	}
	ro := NewRadioOscillator(rng, 3, 7.5)
	if ro.NominalHz != CarrierHz {
		t.Fatal("radio oscillator not at carrier")
	}
}

func TestShannonLinearRegime(t *testing.T) {
	// Below the noise floor the exact capacity approaches the linear
	// approximation (§3.1).
	bw := 500e3
	exact := MultiUserCapacity(bw, 10, 0.001, 1)
	approx := MultiUserCapacityLinearApprox(bw, 10, 0.001, 1)
	if r := exact / approx; r < 0.98 || r > 1 {
		t.Fatalf("low-SNR ratio = %v", r)
	}
	// Well above the floor the approximation overshoots.
	exact = MultiUserCapacity(bw, 100, 1, 1)
	approx = MultiUserCapacityLinearApprox(bw, 100, 1, 1)
	if approx < 2*exact {
		t.Fatalf("high-SNR approximation should overshoot: %v vs %v", approx, exact)
	}
}

// TestAddAWGNLanesMatchesAddAWGN pins the multi-stream twin to AddAWGN:
// one to four signals of unequal lengths (empty, sub-block, across
// noiseBlock boundaries) get exactly the noise AddAWGN adds to each
// from the same stream, and every stream ends in AddAWGN's state.
func TestAddAWGNLanesMatchesAddAWGN(t *testing.T) {
	for _, lens := range [][]int{
		{300}, {0, 257}, {4096, 1, 700}, {4096, 4096, 4096, 2304},
		{5, 6, 7, 8}, {255, 256, 257, 0}, {1000, 3000, 2000},
	} {
		var sts [dsp.ZigLanes]*dsp.Stream
		var sigs [dsp.ZigLanes][]complex128
		want := make([][]complex128, len(lens))
		ref := make([]dsp.Stream, len(lens))
		for l, n := range lens {
			st := dsp.StreamAt(31, uint64(l))
			ref[l] = st
			sts[l] = &st
			sigs[l] = make([]complex128, n)
			want[l] = make([]complex128, n)
			for i := range sigs[l] {
				sigs[l][i] = complex(float64(i), -float64(l))
				want[l][i] = sigs[l][i]
			}
			AddAWGN(&ref[l], want[l], 0.7)
		}
		AddAWGNLanes(sts[:len(lens)], sigs[:len(lens)], 0.7)
		for l := range lens {
			for i := range want[l] {
				if sigs[l][i] != want[l][i] {
					t.Fatalf("lens %v: signal %d sample %d = %v, AddAWGN %v", lens, l, i, sigs[l][i], want[l][i])
				}
			}
			if *sts[l] != ref[l] {
				t.Fatalf("lens %v: stream %d state diverges from AddAWGN's", lens, l)
			}
		}
	}
}

// meanPower is the mean sample power of x.
func meanPower(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e / float64(len(x))
}

// stdDev is the population standard deviation of xs.
func stdDev(xs []float64) float64 {
	m := dsp.Mean(xs)
	var acc float64
	for _, x := range xs {
		acc += (x - m) * (x - m)
	}
	return math.Sqrt(acc / float64(len(xs)))
}
