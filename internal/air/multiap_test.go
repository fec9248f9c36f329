package air_test

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/simtest"
)

// mirrorScalesAndKey replays the MultiChannel's serial randomness for a
// fleet: per-(device, AP) carrier gains in (device, AP) order, then the
// round's noise key — the documented draw-order contract the serial
// reference (and replay tooling) depends on.
func mirrorScalesAndKey(seed int64, txs []air.MultiTransmission, nAPs int) ([][]complex128, int64) {
	rng := dsp.NewRand(seed)
	scales := make([][]complex128, len(txs))
	for i := range txs {
		tx := &txs[i]
		scales[i] = make([]complex128, nAPs)
		if silenced(tx) {
			continue // adds nothing and draws nothing
		}
		for a := 0; a < nAPs; a++ {
			gain := complex(radio.AmplitudeForSNRdB(tx.SNRdB[a]), 0)
			if tx.FadeGain != 0 {
				gain *= tx.FadeGain
			}
			if !tx.FixedPhase {
				gain *= rng.UniformPhase()
			}
			scales[i][a] = gain
		}
	}
	return scales, int64(rng.Uint64())
}

// silenced reports whether a fleet transmission was detached (adds no
// samples, draws no carrier phases).
func silenced(tx *air.MultiTransmission) bool {
	return tx.MixedTmpl == nil || tx.MixedAddRange == nil
}

// fleetKinds are the transmission fleets the channel tests run:
// every device on the MixedAddRange closure path; every device
// scheduled, so tiles accumulate runs of devices in fused passes; and a
// mixed fleet whose closure-only transmissions (devices 3 and 20) sit
// between scheduled runs and whose silenced devices (5, 11, 17) keep
// their schedule hooks but must add nothing. With 24 devices the mixed
// fleet flushes a run at a closure transmission, at a full run of
// synth.FuseRun and at the end of the fleet, which pins transmission
// order at every kind of run boundary.
var fleetKinds = []string{"closures", "scheduled", "mixed"}

// testFleet builds a MultiTxs fleet of the given kind.
func testFleet(p chirp.Params, kind string, nDev, k int, bits [][]byte) []air.MultiTransmission {
	txs := simtest.MultiTxs(p, nDev, k, bits)
	if kind == "closures" {
		return txs
	}
	simtest.Schedule(p, txs, bits)
	if kind == "mixed" {
		for i := range txs {
			switch {
			case i == 3 || i == 20:
				txs[i].MixedSchedule = nil
			case i%6 == 5:
				txs[i].MixedTmpl, txs[i].MixedAddRange = nil, nil
			}
		}
	}
	return txs
}

// TestMultiChannelMatchesSingleAPOracles pins the fan-out's
// bit-exactness contract: each per-AP buffer of a MultiChannel receive
// must be DeepEqual to serialReference, a serial whole-buffer pass that
// re-derives everything from scratch — fresh encoders, the mirrored
// scale draws, the per-AP noise key masterKey^ap — so the equality
// validates the fan-out's scale composition, accumulation order, tile
// grid and noise-key derivation, for k ∈ {1, 2, 3, 4} — three being an
// AP fan-out that does not divide evenly over two workers. At k = 1
// this is the simulator's single-AP round. The reference always
// accumulates device by device over the whole buffer, so on the
// scheduled and mixed fleets it also pins the fused accumulate — runs
// of devices per pass, across a two-tile buffer — to per-device
// accumulation. A second, five-tile buffer splits each AP's noise into
// a two-tile group (the single-stream fill) and a three-tile group (the
// lane fill), so the reference's single-stream noise pins both.
func TestMultiChannelMatchesSingleAPOracles(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 24
	const nBits = 40
	for _, length := range []int{(8 + nBits + 2) * p.N(), 4*noiseTile + 17} {
		for _, kind := range fleetKinds {
			for _, k := range []int{1, 2, 3, 4} {
				checkMultiAgainstOracles(t, p, kind, k, nDev, nBits, length)
			}
		}
	}
}

func checkMultiAgainstOracles(t *testing.T, p chirp.Params, kind string, k, nDev, nBits, length int) {
	t.Helper()
	bits := simtest.Bits(nDev, nBits, 21)
	txs := testFleet(p, kind, nDev, k, bits)
	const seed = 99
	mc := air.NewMultiChannel(p, k, dsp.NewRand(seed))
	outs := mc.Receive(length, txs)

	scales, key := mirrorScalesAndKey(seed, txs, k)
	for a := 0; a < k; a++ {
		want := serialReference(p, txs, bits, scales, key, a, length)
		if !reflect.DeepEqual(outs[a], want) {
			i := firstDiff(outs[a], want)
			t.Fatalf("%s fleet, k=%d, %d samples: AP %d diverges from the serial reference at sample %d: %v vs %v",
				kind, k, length, a, i, outs[a][i], want[i])
		}
	}
}

// noiseTile is the channel's noise grain: tile t of AP a's buffer draws
// its noise from dsp.StreamAt(key^a, t).
const noiseTile = 4096

// serialReference builds AP a's receive buffer the slow way: per
// contributing device in transmission order, the unit-gain templates
// scaled by the device's mirrored AP-a draw and added by one
// FrameBitsWaveformMixedAddRange over the whole buffer; then each
// noiseTile-sample tile's noise stream under the AP's key.
func serialReference(p chirp.Params, txs []air.MultiTransmission, bits [][]byte, scales [][]complex128, key int64, a, length int) []complex128 {
	out := make([]complex128, length)
	fs := p.SampleRate()
	for i := range txs {
		tx := &txs[i]
		if silenced(tx) {
			continue
		}
		enc := core.NewEncoder(p, (i*7+3)%p.N())
		delay := tx.DelaySec * fs
		at := int(math.Floor(delay))
		frac := delay - float64(at)
		base := enc.FrameBitsWaveformMixedTemplates(nil, bits[i], frac, tx.FreqOffsetHz, 1)
		tmpl := air.ScaleTemplate(nil, base, scales[i][a])
		enc.FrameBitsWaveformMixedAddRange(out, 0, length, at, tmpl, bits[i], frac, tx.FreqOffsetHz)
	}
	for t, lo := 0, 0; lo < length; t, lo = t+1, lo+noiseTile {
		st := dsp.StreamAt(key^int64(a), uint64(t))
		radio.AddAWGN(&st, out[lo:min(lo+noiseTile, length)], 1)
	}
	return out
}

func firstDiff(a, b []complex128) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestMultiChannelSynthesizesTemplatesOnce pins the fan-out's economy
// claim: template synthesis (MixedTmpl) runs exactly once per
// contributing device per receive, regardless of the AP count — the
// per-AP variation is applied by scaling, never by re-synthesis.
func TestMultiChannelSynthesizesTemplatesOnce(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 5
	const k = 4
	bits := simtest.Bits(nDev, 9, 3)
	txs := simtest.MultiTxs(p, nDev, k, bits)
	var calls atomic.Int64
	for i := range txs {
		inner := txs[i].MixedTmpl
		txs[i].MixedTmpl = func(tmpl []complex128, frac, freqHz float64, gain complex128) []complex128 {
			calls.Add(1)
			return inner(tmpl, frac, freqHz, gain)
		}
	}
	mc := air.NewMultiChannel(p, k, dsp.NewRand(5))
	length := (8 + 9 + 2) * p.N()
	outs := mc.Receive(length, txs)
	if got := calls.Load(); got != nDev {
		t.Fatalf("first receive synthesized %d templates for %d devices", got, nDev)
	}
	mc.ReceiveInto(outs, txs)
	if got := calls.Load(); got != 2*nDev {
		t.Fatalf("after two receives: %d synth calls, want %d", got, 2*nDev)
	}
}

// TestMultiChannelBitIdenticalAcrossGOMAXPROCSRace pins the fan-out's
// determinism contract under the race detector: all k buffers are
// bit-identical across GOMAXPROCS ∈ {1, 2, 4} — the (AP, tile)-indexed
// noise streams and transmission-ordered accumulation make every
// buffer a pure function of (seed, transmissions), not of worker
// scheduling. Every fleet kind gives the closure fleet's bits: the
// per-device schedules are filled by pool workers and read by every
// AP item's tile workers, with no shared scratch between tiles.
func TestMultiChannelBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 24
	const k = 3
	const nBits = 36
	length := (8 + nBits + 3) * p.N()

	run := func(procs int, kind string) [][]complex128 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		bits := simtest.Bits(nDev, nBits, 8)
		mc := air.NewMultiChannel(p, k, dsp.NewRand(44))
		outs := mc.Receive(length, testFleet(p, kind, nDev, k, bits))
		// A second round through the same channel exercises arena reuse.
		mc.Rng = dsp.NewRand(44)
		outs2 := mc.Receive(length, testFleet(p, kind, nDev, k, bits))
		for a := range outs {
			if !reflect.DeepEqual(outs[a], outs2[a]) {
				t.Fatalf("%s fleet, procs=%d: arena reuse diverged at AP %d", kind, procs, a)
			}
		}
		return outs
	}

	want := run(1, "closures")
	wantMixed := run(1, "mixed")
	for _, procs := range []int{1, 2, 4} {
		for _, kind := range fleetKinds {
			ref := want
			if kind == "mixed" {
				ref = wantMixed
			}
			got := run(procs, kind)
			for a := range ref {
				if !reflect.DeepEqual(got[a], ref[a]) {
					i := firstDiff(got[a], ref[a])
					t.Fatalf("%s fleet, GOMAXPROCS=%d: AP %d diverges from the serial receive at sample %d", kind, procs, a, i)
				}
			}
		}
	}
}

// TestMultiChannelZeroAllocSteadyState: after a warm-up receive, the
// multi-AP fan-out reuses every arena — base templates, per-AP scaled
// templates, scales, placements, frame schedules — and the noise
// groups borrow their scratch, so steady-state receives allocate
// nothing at GOMAXPROCS=1, on every fleet kind: with one tile per AP
// (one-tile noise groups, the single-stream fill) and with three (one
// three-tile group per AP, through the lane fill).
func TestMultiChannelZeroAllocSteadyState(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	p := simtest.SmallParams()
	const nDev = 24
	const k = 2
	bits := simtest.Bits(nDev, 10, 6)
	for _, length := range []int{(8 + 10 + 2) * p.N(), 3*noiseTile - 100} {
		for _, kind := range fleetKinds {
			txs := testFleet(p, kind, nDev, k, bits)
			mc := air.NewMultiChannel(p, k, dsp.NewRand(9))
			outs := mc.Receive(length, txs)
			allocs := testing.AllocsPerRun(10, func() { mc.ReceiveInto(outs, txs) })
			if allocs != 0 {
				t.Fatalf("%s fleet, %d samples: steady-state multi-AP receive allocates %.1f objects/op", kind, length, allocs)
			}
		}
	}
}

// TestMultiChannelNoiseIndependentPerAP: with no transmissions the
// buffers are pure noise; distinct APs must draw distinct streams
// (key^ap), and AP 0's stream must be exactly the materialized-waveform
// Channel's for the same Rng sequence, so both channels share one noise
// definition.
func TestMultiChannelNoiseIndependentPerAP(t *testing.T) {
	p := simtest.SmallParams()
	length := 3 * p.N()
	mc := air.NewMultiChannel(p, 3, dsp.NewRand(12))
	outs := mc.Receive(length, nil)
	for a := 1; a < 3; a++ {
		if reflect.DeepEqual(outs[0], outs[a]) {
			t.Fatalf("AP %d drew AP 0's noise stream", a)
		}
	}
	ch := air.NewChannel(p, dsp.NewRand(12))
	single := ch.Receive(length, nil)
	if !reflect.DeepEqual(outs[0], single) {
		t.Fatal("AP 0's noise differs from the single-AP channel at the same seed")
	}
	// Correlation sanity: distinct streams should be near-orthogonal.
	var dot, p0, p1 float64
	for i := range outs[0] {
		dot += real(outs[0][i])*real(outs[1][i]) + imag(outs[0][i])*imag(outs[1][i])
		p0 += real(outs[0][i])*real(outs[0][i]) + imag(outs[0][i])*imag(outs[0][i])
		p1 += real(outs[1][i])*real(outs[1][i]) + imag(outs[1][i])*imag(outs[1][i])
	}
	if corr := math.Abs(dot) / math.Sqrt(p0*p1); corr > 0.1 {
		t.Fatalf("per-AP noise streams correlate at %.3f", corr)
	}
}
