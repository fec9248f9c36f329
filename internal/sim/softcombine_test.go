package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
)

func testSoftNetwork(t testing.TB, nDev, nAPs int, seed int64) *MultiAPNetwork {
	t.Helper()
	net := testMultiAPNetwork(t, nDev, nAPs, seed)
	net.SetSoftCombining(true)
	return net
}

// TestSoftCombinedSpectraOracle pins the summed arena against an
// independent materialization: for k ∈ {1, 2, 4}, naively recompute
// every AP's power spectra symbol by symbol (fresh demodulator,
// single-symbol Spectrum — the retained oracle path) and sum them with
// a scalar += loop in the same AP order. The round sums only the
// candidate set's window plan, so every plan bin of the combined arena
// must be bit-equal to the naive sum, and decoding the combined arena
// must equal decoding the full naive sum. This covers the emit layout,
// the fused kernels' emitted rows, the pruned transform and the AVX2
// power-sum kernel in one check.
func TestSoftCombinedSpectraOracle(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			const nDev = 12
			net := testSoftNetwork(t, nDev, k, 21)
			if _, err := net.RunRound(nDev); err != nil {
				t.Fatal(err)
			}

			p := net.cfg.Params
			n := p.N()
			payloadBits := net.cfg.PayloadBytes*8 + core.CRCBits
			dcfg := resolveDecoderConfig(net.cfg, net.book.Skip())
			dem := chirp.NewDemodulator(p, dcfg.ZeroPad)
			bins := dem.PaddedBins()
			want := make([]float64, core.EmitRows(payloadBits)*bins)
			row := make([]float64, bins)
			addRow := func(dst []float64, spec []float64) {
				for i, v := range spec {
					dst[i] += v
				}
			}
			for a := 0; a < k; a++ {
				sig := net.rc.sigs[a]
				for sym := 0; sym < core.PreambleUpSymbols; sym++ {
					copy(row, dem.Spectrum(sig[sym*n:(sym+1)*n]))
					addRow(want[sym*bins:(sym+1)*bins], row)
				}
				payloadStart := core.PreambleSymbols * n
				for sym := 0; sym < payloadBits; sym++ {
					copy(row, dem.Spectrum(sig[payloadStart+sym*n:payloadStart+(sym+1)*n]))
					addRow(want[(core.PreambleUpSymbols+sym)*bins:(core.PreambleUpSymbols+sym+1)*bins], row)
				}
			}

			shifts := net.rc.shifts[:nDev]
			plan := net.combDec.WindowPlan(shifts)
			if plan.Full() {
				t.Fatal("window plan covers every bin; the windowed sum is not exercised")
			}
			for i := range want {
				if plan.Contains(i%bins) && net.rc.comb[i] != want[i] {
					t.Fatalf("k=%d: combined arena diverges from naive sum at plan bin %d: %v vs %v",
						k, i, net.rc.comb[i], want[i])
				}
			}

			got := net.rc.softRes
			full, err := core.NewDecoder(net.book, dcfg).DecodeFrameSpectra(want, k, shifts, payloadBits)
			if err != nil {
				t.Fatal(err)
			}
			if got.NoiseBinPower != full.NoiseBinPower || !reflect.DeepEqual(got.Devices, full.Devices) {
				t.Fatalf("k=%d: decode of the windowed sum diverges from decode of the full naive sum:\n got %+v\nwant %+v",
					k, got.Devices, full.Devices)
			}
		})
	}
}

// TestSoftCombineSingleAPDegeneracy pins the acceptance criterion's
// k=1 contract at the sim level: with one AP, the combined-spectra
// decode is bit-identical to that AP's own decode (devices, powers,
// bits, flags), and the soft round stats equal the selection stats.
func TestSoftCombineSingleAPDegeneracy(t *testing.T) {
	const nDev = 16
	net := testSoftNetwork(t, nDev, 1, 7)
	stats, err := net.RunRound(nDev)
	if err != nil {
		t.Fatal(err)
	}
	if net.rc.softRes == nil {
		t.Fatal("soft round kept no combined decode")
	}
	if !reflect.DeepEqual(net.rc.softRes.Devices, net.rc.res[0].Devices) {
		t.Fatalf("k=1 combined decode diverges from the single AP's:\n got %+v\nwant %+v",
			net.rc.softRes.Devices, net.rc.res[0].Devices)
	}
	if net.rc.softRes.NoiseBinPower != net.rc.res[0].NoiseBinPower {
		t.Fatalf("k=1 combined noise %v != single-AP %v",
			net.rc.softRes.NoiseBinPower, net.rc.res[0].NoiseBinPower)
	}
	if stats.Soft != stats.Combined {
		t.Fatalf("k=1 soft stats %+v != selection stats %+v", stats.Soft, stats.Combined)
	}
}

// TestSoftCombineLeavesSelectionUntouched: the soft path is strictly
// additive — the same network with the flag on and off produces
// bit-identical Combined and PerAP statistics round after round (no
// random draw, arena or decode is perturbed by emitting and combining).
func TestSoftCombineLeavesSelectionUntouched(t *testing.T) {
	const nDev = 24
	a := testMultiAPNetwork(t, nDev, 3, 11)
	b := testSoftNetwork(t, nDev, 3, 11)
	for round := 0; round < 3; round++ {
		sa, err := a.RunRound(nDev)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.RunRound(nDev)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Combined != sb.Combined || !reflect.DeepEqual(sa.PerAP, sb.PerAP) {
			t.Fatalf("round %d: soft flag changed selection outcome:\n off %+v\n on  %+v", round, sa, sb)
		}
		if sb.SoftFramesGained() < 0 {
			t.Fatalf("round %d: soft combining lost %d frames vs selection",
				round, -sb.SoftFramesGained())
		}
	}
}

// TestSoftCombineRunRoundSteadyStateZeroAlloc extends the round
// allocation gate to the soft path: after one warm-up round, a soft
// k-AP round — per-AP emit decodes, the bin-wise arena sum, the
// combined-spectra decode and both aggregations — touches no heap, at
// GOMAXPROCS 1 and at GOMAXPROCS 2, where the decoders and the channel
// really fan out to pool helpers.
func TestSoftCombineRunRoundSteadyStateZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	net := testSoftNetwork(t, 16, 2, 3)
	if _, err := net.RunRound(16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := net.RunRound(16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state soft RunRound allocates %.1f objects/op, want 0", allocs)
	}

	// testing.AllocsPerRun pins GOMAXPROCS to 1, so the fan-out case
	// counts mallocs itself, on a network built at GOMAXPROCS 2. A
	// decode worker materializes its demodulator the first time the
	// scheduler hands it work, which may be any round, and the pool
	// starts a helper the first time the tokens held at once outnumber
	// its helpers; so the best of a few 20-round windows is judged.
	// Per-call state would cost several objects in every round of every
	// window.
	runtime.GOMAXPROCS(2)
	net = testSoftNetwork(t, 16, 2, 3)
	if _, err := net.RunRound(16); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	best := math.Inf(1)
	for w := 0; w < 5 && best >= 1; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			if _, err := net.RunRound(16); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/rounds)
	}
	if best >= 1 {
		t.Fatalf("steady-state soft RunRound at GOMAXPROCS 2 allocates %.2f objects/round, want 0", best)
	}
}

// TestSoftCombineRoundBitIdenticalAcrossGOMAXPROCSRace pins the soft
// path's determinism contract under the race detector: the emitted
// arenas are filled by pool workers, but the bin-wise sum runs serially
// in AP order, so Soft (and everything else) is bit-identical across
// GOMAXPROCS ∈ {1, 2, 4}.
func TestSoftCombineRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	const nDev = 20
	const nAPs = 2
	const rounds = 3

	type roundOut struct {
		Combined RoundStats
		Soft     RoundStats
		PerAP    []RoundStats
	}
	run := func(procs int) []roundOut {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		net := testSoftNetwork(t, nDev, nAPs, 17)
		var outs []roundOut
		for r := 0; r < rounds; r++ {
			stats, err := net.RunRound(nDev)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, roundOut{stats.Combined, stats.Soft, append([]RoundStats(nil), stats.PerAP...)})
		}
		return outs
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Fatalf("GOMAXPROCS=%d round %d diverges: %+v vs %+v", procs, r, got[r], want[r])
			}
		}
	}
}

// TestSoftCombineSurvivesAPDropout: with a dead AP mid-round, the soft
// path sums only the live arenas (stale spectra never leak in) and the
// soft stats stay no worse than selection. Exercised through a
// trajectory with AP dropout forced on.
func TestSoftCombineSurvivesAPDropout(t *testing.T) {
	const nDev = 12
	const nAPs = 3
	net := testSoftNetwork(t, nDev, nAPs, 29)
	adv := advRound{apAlive: make([]bool, nAPs)}
	// Kill AP 1; APs 0 and 2 stay live.
	adv.apAlive[0], adv.apAlive[1], adv.apAlive[2] = true, false, true
	stats, err := net.runRound(nDev, &adv)
	if err != nil {
		t.Fatal(err)
	}
	if net.rc.softRes == nil {
		t.Fatal("soft decode missing with live APs remaining")
	}
	if stats.SoftFramesGained() < 0 {
		t.Fatalf("soft lost %d frames vs selection under dropout", -stats.SoftFramesGained())
	}

	// All APs dead: no combined decode, soft degenerates to the empty
	// selection outcome.
	adv.apAlive[0], adv.apAlive[2] = false, false
	stats, err = net.runRound(nDev, &adv)
	if err != nil {
		t.Fatal(err)
	}
	if net.rc.softRes != nil {
		t.Fatal("combined decode produced with every AP dead")
	}
	if stats.Soft.FramesOK != 0 || stats.Combined.FramesOK != 0 {
		t.Fatalf("all-dead round decoded frames: %+v", stats)
	}
}
