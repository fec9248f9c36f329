package air_test

import (
	"math/cmplx"
	"runtime"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/dsp"
	"netscatter/internal/simtest"
	"netscatter/internal/synth"
)

// TestReceiveMixedMatchesDelayed builds the same two-device frame
// twice — through the Delayed path (synthesize, then ApplyFreqOffset,
// then gain scale) and the Mixed path (everything folded into the
// synthesis recurrence) — with identical rng sequences, and requires
// the received streams to agree to the synthesis tolerance.
func TestReceiveMixedMatchesDelayed(t *testing.T) {
	p := simtest.SmallParams()
	s := synth.For(p)
	bits := []byte{1, 0, 1, 1, 0, 1}
	shifts := []int{5, 60}
	offsets := []float64{170, -410}
	delays := []float64{0.3 / p.BW, 0.45 / p.BW}
	snrs := []float64{12, 4}

	build := func(mixed bool) []complex128 {
		var txs []air.Transmission
		for i := range shifts {
			shift := shifts[i]
			tx := air.Transmission{
				SNRdB:        snrs[i],
				DelaySec:     delays[i],
				FreqOffsetHz: offsets[i],
			}
			if mixed {
				tx.Mixed = func(dst []complex128, frac, freqHz float64, gain complex128) []complex128 {
					omega := 2 * 3.141592653589793 * freqHz / p.SampleRate()
					return s.FrameMixedInto(dst, shift, 6, 2, bits, frac, omega, gain)
				}
			} else {
				tx.Delayed = func(frac float64) []complex128 {
					return s.FrameDelayedInto(nil, shift, 6, 2, bits, frac)
				}
			}
			txs = append(txs, tx)
		}
		ch := air.NewChannel(p, dsp.NewRand(42))
		ch.NoisePower = 1
		// Two rounds through the same channel so the slot-buffer reuse
		// path is exercised; rebuild the rng so both rounds draw the
		// same sequence and must produce identical streams.
		out := ch.Receive(ch.FrameLength(8+len(bits), 2), txs)
		ch.Rng = dsp.NewRand(42)
		out2 := ch.ReceiveInto(make([]complex128, len(out)), txs)
		for i := range out {
			if out[i] != out2[i] {
				t.Fatalf("mixed=%v: reused channel diverged at sample %d", mixed, i)
			}
		}
		return out
	}

	a := build(false)
	b := build(true)
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	// The mixed path differs only by recurrence-vs-incremental rotation
	// rounding; tolerance scales with the strongest amplitude in the sum.
	worst := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-8 {
		t.Fatalf("mixed path diverges from delayed path by %.3e", worst)
	}
}

// TestReceiveTiledParallelBitIdenticalRace pins the channel's
// determinism contract under the race detector: a Mixed fleet's receive
// — chunked synthesis fanned across the pool, superposition in
// transmission order, noise from the tile-indexed streams — is
// bit-identical across GOMAXPROCS 1, 2 and 4, so the output is a pure
// function of (seed, transmissions), not of worker scheduling.
func TestReceiveTiledParallelBitIdenticalRace(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 16
	bits := simtest.Bits(nDev, 18, 5)
	length := (8 + 18 + 3) * p.N()

	run := func(procs int) []complex128 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		ch := air.NewChannel(p, dsp.NewRand(31))
		out := ch.Receive(length, simtest.MixedTxs(p, nDev, bits))
		// A second round through the same channel exercises slot reuse.
		ch.Rng = dsp.NewRand(31)
		out2 := ch.ReceiveInto(make([]complex128, length), simtest.MixedTxs(p, nDev, bits))
		for i := range out {
			if out[i] != out2[i] {
				t.Fatalf("procs=%d: slot reuse diverged at sample %d", procs, i)
			}
		}
		return out
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d diverges from serial at sample %d: %v vs %v",
					procs, i, got[i], want[i])
			}
		}
	}
}

// TestReceiveTiledNoiseReplayable: reseeding the channel Rng replays
// the exact receive, tile-grid noise included (the round key is drawn
// from it), while consecutive rounds with an advancing Rng draw fresh
// noise — over a noise-only receive and over a Mixed fleet.
func TestReceiveTiledNoiseReplayable(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 4
	bits := simtest.Bits(nDev, 6, 2)
	for _, txs := range [][]air.Transmission{nil, simtest.MixedTxs(p, nDev, bits)} {
		length := (8 + 6 + 2) * p.N()
		ch := air.NewChannel(p, dsp.NewRand(8))
		a := ch.Receive(length, txs)
		b := ch.Receive(length, txs) // Rng advanced: different key
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%d transmissions: consecutive rounds drew identical noise", len(txs))
		}
		ch.Rng = dsp.NewRand(8)
		c := ch.Receive(length, txs)
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("%d transmissions: reseeded channel did not replay at sample %d", len(txs), i)
			}
		}
	}
}

// TestReceiveTiledZeroAllocSteadyState: after a warm-up receive, a
// Mixed fleet synthesizes into the channel's reused slot buffers and
// the tile-grid noise draws from stack-held streams — no allocations
// per round, with the pool inline (GOMAXPROCS=1) or fanned out.
func TestReceiveTiledZeroAllocSteadyState(t *testing.T) {
	p := simtest.SmallParams()
	const nDev = 6
	bits := simtest.Bits(nDev, 10, 6)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		txs := simtest.MixedTxs(p, nDev, bits)
		ch := air.NewChannel(p, dsp.NewRand(9))
		out := make([]complex128, (8+10+2)*p.N())
		ch.ReceiveInto(out, txs)
		allocs := testing.AllocsPerRun(10, func() { ch.ReceiveInto(out, txs) })
		runtime.GOMAXPROCS(prev)
		if allocs != 0 {
			t.Fatalf("GOMAXPROCS=%d: steady-state receive allocates %.1f objects/op", procs, allocs)
		}
	}
}
