package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/simtest"
)

func testMultiAPNetwork(t testing.TB, nDev, nAPs int, seed int64) *MultiAPNetwork {
	t.Helper()
	dep := simtest.MultiAPDeployment(t, nDev, nAPs, seed)
	cfg := DefaultConfig()
	cfg.Params = simtest.SmallParams()
	cfg.PayloadBytes = 2
	net, err := NewMultiAPNetwork(cfg, dep, nAPs, nDev, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestMultiAPRoundSmallClean: a small clean fleet should decode nearly
// everywhere, and the combined outcome can never fall below every
// single AP's (the aggregator represents each device by its best
// decode).
func TestMultiAPRoundSmallClean(t *testing.T) {
	net := testMultiAPNetwork(t, 16, 2, 1)
	stats, err := net.RunRound(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PerAP) != 2 {
		t.Fatalf("per-AP stats for %d APs", len(stats.PerAP))
	}
	if stats.Combined.Detected < 15 {
		t.Fatalf("combined detected %d/16", stats.Combined.Detected)
	}
	if stats.Combined.FramesOK < 14 {
		t.Fatalf("combined framesOK %d/16", stats.Combined.FramesOK)
	}
	for a, s := range stats.PerAP {
		if s.Devices != 16 {
			t.Fatalf("AP %d saw %d devices", a, s.Devices)
		}
		if stats.Combined.FramesOK < s.FramesOK {
			t.Fatalf("combined framesOK %d below AP %d's %d",
				stats.Combined.FramesOK, a, s.FramesOK)
		}
	}
	if got := stats.DiversityFramesGained(); got < 0 {
		t.Fatalf("diversity gain %d negative", got)
	}
	if per := stats.Combined.PER(); per < 0 || per > 2.0/16 {
		t.Fatalf("combined PER %v", per)
	}
}

// checkRoundZeroAlloc pins the round context's allocation-free claim
// for a k-AP network, soft combining on or off: after the warm-up
// round, a round — template fan-out, the per-AP items filling and
// decoding each buffer, the soft sum and combined decode, the
// aggregation — touches no heap. At GOMAXPROCS=1 the worker pool runs
// inline. At GOMAXPROCS=2 its helpers really run, and the test counts
// mallocs itself (testing.AllocsPerRun forces GOMAXPROCS 1): the pool
// recycles its jobs and its helpers persist, so a fan-out starts no
// goroutine and the runtime allocates no goroutine descriptor for it;
// the round holds the pool, so its helper polls from one fan-out and
// one round to the next rather than parking; the bound of 0.1 per round
// leaves room for a stray runtime allocation and none for per-round
// state.
func checkRoundZeroAlloc(t *testing.T, k int, soft bool) {
	t.Helper()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)

			net := testMultiAPNetwork(t, 16, k, 3)
			net.SetSoftCombining(soft)
			round := func() {
				if _, err := net.RunRound(16); err != nil {
					t.Fatal(err)
				}
			}
			if procs == 1 {
				round()
				if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
					t.Fatalf("k=%d soft=%v: steady-state RunRound allocates %.1f objects/op, want 0", k, soft, allocs)
				}
				return
			}
			// Warm up until the pool's jobs and helpers are all in
			// place, then average over enough rounds that a stray
			// allocation reads as a fraction.
			for range 200 {
				round()
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				round()
			}
			runtime.ReadMemStats(&after)
			if perRound := float64(after.Mallocs-before.Mallocs) / runs; perRound >= 0.1 {
				t.Fatalf("k=%d soft=%v: steady-state RunRound at GOMAXPROCS 2 allocates %.2f objects/op, want 0", k, soft, perRound)
			}
		})
	}
}

// TestRoundHoldsPoolOnlyAcrossTiles pins the round's hold rule: a round
// whose receive buffers fit one tile — serve-fleet's tenant shape, 2
// devices at SF 6 with 2-byte payloads (2176 samples) — leaves the pool
// unheld, and the 16-device rounds of checkRoundZeroAlloc (SF 7, 4352
// samples, two tiles) hold it at every AP count the gates run.
func TestRoundHoldsPoolOnlyAcrossTiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Params = chirp.Params{SF: 6, BW: 500e3, Oversample: 1}
	cfg.PayloadBytes = 2
	tenant, err := NewMultiAPNetwork(cfg, simtest.MultiAPDeployment(t, 2, 1, 5), 1, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tenant.holdsPool() {
		t.Fatalf("a one-tile round (%d samples) holds the pool", len(tenant.rc.sigs[0]))
	}
	for _, k := range []int{1, 2, 4} {
		if net := testMultiAPNetwork(t, 16, k, 3); !net.holdsPool() {
			t.Fatalf("k=%d: a %d-sample round does not hold the pool", k, len(net.rc.sigs[0]))
		}
	}
}

// TestRunRoundSteadyStateZeroAlloc: the single-AP round (k = 1).
func TestRunRoundSteadyStateZeroAlloc(t *testing.T) { checkRoundZeroAlloc(t, 1, false) }

// TestMultiAPRunRoundSteadyStateZeroAlloc: a diversity round (k = 2).
func TestMultiAPRunRoundSteadyStateZeroAlloc(t *testing.T) { checkRoundZeroAlloc(t, 2, false) }

// TestSoftMultiAPRunRoundSteadyStateZeroAlloc: a soft-combining round at
// k = 4, more AP items than GOMAXPROCS 2 has workers.
func TestSoftMultiAPRunRoundSteadyStateZeroAlloc(t *testing.T) { checkRoundZeroAlloc(t, 4, true) }

// checkRoundDeterministicPerSeed asserts the arena refill preserves the
// draw order: two k-AP networks built from the same seed produce
// identical combined and per-AP statistics, round after round.
func checkRoundDeterministicPerSeed(t *testing.T, k int) {
	t.Helper()
	a := testMultiAPNetwork(t, 24, k, 11)
	b := testMultiAPNetwork(t, 24, k, 11)
	for round := 0; round < 3; round++ {
		sa, err := a.RunRound(24)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.RunRound(24)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Combined != sb.Combined || !reflect.DeepEqual(sa.PerAP, sb.PerAP) {
			t.Fatalf("k=%d round %d diverged: %+v vs %+v", k, round, sa, sb)
		}
	}
}

// TestRunRoundDeterministicPerSeed: the single-AP round (k = 1).
func TestRunRoundDeterministicPerSeed(t *testing.T) { checkRoundDeterministicPerSeed(t, 1) }

// TestMultiAPRoundDeterministicPerSeed: a three-AP round.
func TestMultiAPRoundDeterministicPerSeed(t *testing.T) { checkRoundDeterministicPerSeed(t, 3) }

// gomaxprocsCase is one network shape swept by
// checkRoundBitIdenticalAcrossGOMAXPROCS.
type gomaxprocsCase struct {
	small         bool // simtest.SmallParams instead of the paper's SF 9
	nDev, nAPs    int
	payloadBytes  int
	depSeed, seed int64
	soft          bool // soft combining on
	// apDrops, when set, runs the rounds as steps of a trajectory whose
	// only adversity kills each AP with this probability per round; the
	// sweep then requires at least one dead AP-round.
	apDrops float64
}

// checkRoundBitIdenticalAcrossGOMAXPROCS pins the round path's hard
// determinism contract at the sample level: for a fixed seed, every
// round's receive buffers — signal accumulation and tile-stream noise —
// and its combined, soft and per-AP statistics are identical across
// GOMAXPROCS ∈ {1, 2, 4}. The worker pool fans out template synthesis,
// then one item per AP that fills the AP's tiles and noise groups and
// decodes the AP, with those inner fan-outs nested in the items; none
// of that scheduling may leak into the outcome. Run under -race in CI,
// this also sweeps those workers for data races.
func checkRoundBitIdenticalAcrossGOMAXPROCS(t *testing.T, tc gomaxprocsCase) {
	t.Helper()
	const rounds = 4
	type roundOut struct {
		Combined, Soft RoundStats
		PerAP          []RoundStats
		Sigs           [][]complex128
	}
	run := func(procs int) []roundOut {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		dep := simtest.Deployment(t, tc.nDev, tc.depSeed)
		cfg := DefaultConfig()
		if tc.small {
			cfg.Params = simtest.SmallParams()
		}
		cfg.PayloadBytes = tc.payloadBytes
		net, err := NewMultiAPNetwork(cfg, dep, tc.nAPs, tc.nDev, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		net.SetSoftCombining(tc.soft)
		step := func() (MultiRoundStats, error) { return net.RunRound(tc.nDev) }
		var tr *Trajectory
		if tc.apDrops > 0 {
			tr, err = NewTrajectory(net, TrajectoryConfig{Rounds: rounds, Seed: 5, APDropProb: tc.apDrops})
			if err != nil {
				t.Fatal(err)
			}
			step = tr.Step
		}
		var outs []roundOut
		for r := 0; r < rounds; r++ {
			stats, err := step()
			if err != nil {
				t.Fatal(err)
			}
			out := roundOut{Combined: stats.Combined, Soft: stats.Soft, PerAP: append([]RoundStats(nil), stats.PerAP...)}
			for _, sig := range net.rc.sigs {
				out.Sigs = append(out.Sigs, append([]complex128(nil), sig...))
			}
			outs = append(outs, out)
		}
		if tr != nil && tr.Stats().APDownRounds == 0 {
			t.Fatalf("GOMAXPROCS=%d: the trajectory dropped no AP in %d rounds", procs, rounds)
		}
		return outs
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		for r := range want {
			if got[r].Combined != want[r].Combined || got[r].Soft != want[r].Soft || !reflect.DeepEqual(got[r].PerAP, want[r].PerAP) {
				t.Fatalf("GOMAXPROCS=%d round %d stats diverge: %+v vs %+v", procs, r, got[r], want[r])
			}
			for a, sig := range want[r].Sigs {
				for i := range sig {
					if got[r].Sigs[a][i] != sig[i] {
						t.Fatalf("GOMAXPROCS=%d round %d: AP %d's receive buffer diverges at sample %d",
							procs, r, a, i)
					}
				}
			}
		}
	}
}

// TestRunRoundBitIdenticalAcrossGOMAXPROCSRace: the single-AP round
// (k = 1) at the paper's SF 9.
func TestRunRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	checkRoundBitIdenticalAcrossGOMAXPROCS(t, gomaxprocsCase{nDev: 24, nAPs: 1, payloadBytes: 3, depSeed: 17, seed: 99})
}

// TestMultiAPRoundBitIdenticalAcrossGOMAXPROCSRace: a two-AP round.
func TestMultiAPRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	checkRoundBitIdenticalAcrossGOMAXPROCS(t, gomaxprocsCase{small: true, nDev: 20, nAPs: 2, payloadBytes: 2, depSeed: 17, seed: 18})
}

// TestMultiAPOddSoftRoundBitIdenticalAcrossGOMAXPROCSRace: three APs —
// an AP fan-out that does not divide evenly over two workers — with soft
// combining on, at the paper's SF 9, where each AP's buffer spans
// several tiles and noise groups.
func TestMultiAPOddSoftRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	checkRoundBitIdenticalAcrossGOMAXPROCS(t, gomaxprocsCase{nDev: 16, nAPs: 3, payloadBytes: 3, depSeed: 21, seed: 22, soft: true})
}

// TestMultiAPOddDropRoundBitIdenticalAcrossGOMAXPROCSRace: three soft
// APs stepped through a trajectory that drops APs, so some rounds fill
// a dead AP's buffer without decoding it.
func TestMultiAPOddDropRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	checkRoundBitIdenticalAcrossGOMAXPROCS(t, gomaxprocsCase{small: true, nDev: 20, nAPs: 3, payloadBytes: 2, depSeed: 23, seed: 24, soft: true, apDrops: 0.3})
}

// TestMultiAPSingleAPDegeneracy: a 1-AP multi network places its AP at
// the floor center (the classic deployment's position), so its link
// state matches the classic generator's and rounds behave like a
// single-AP network's.
func TestMultiAPSingleAPDegeneracy(t *testing.T) {
	dep := simtest.MultiAPDeployment(t, 16, 1, 7)
	for i, dev := range dep.Devices {
		if dev.APLinks[0].UplinkSNRdB != dev.UplinkSNRdB {
			t.Fatalf("device %d: 1-AP uplink %v != classic %v",
				i, dev.APLinks[0].UplinkSNRdB, dev.UplinkSNRdB)
		}
		if dev.APLinks[0].Walls != dev.Walls {
			t.Fatalf("device %d: 1-AP walls %d != classic %d", i, dev.APLinks[0].Walls, dev.Walls)
		}
	}
	net := testMultiAPNetwork(t, 16, 1, 7)
	stats, err := net.RunRound(16)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Combined != stats.PerAP[0] {
		t.Fatalf("1-AP combined %+v != its only AP's %+v", stats.Combined, stats.PerAP[0])
	}
}

// TestMultiAPDiversityHelpsWeakDevices: with more APs, the weakest
// links shorten — at a pinned seed a 4-AP deployment must decode at
// least as many frames as the same fleet heard by one central AP, and
// the deployment's best-AP SNR floor must rise.
func TestMultiAPDiversityHelpsWeakDevices(t *testing.T) {
	const nDev = 48
	run := func(k int) int {
		net := testMultiAPNetwork(t, nDev, k, 5)
		stats, err := net.RunRound(nDev)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Combined.FramesOK
	}
	if ok1, ok4 := run(1), run(4); ok4 < ok1 {
		t.Fatalf("4-AP round decoded %d frames, 1-AP %d — diversity lost frames", ok4, ok1)
	}
}

// TestMultiAPFusedReceiveMatchesClosures pins the round path's fused
// receive to the closure path: two networks from one seed, one with
// its frame-schedule hooks stripped so every tile accumulates device by
// device through MixedAddRange, run a full-adversity trajectory —
// sleeping devices (detached, adding nothing), interference bursts
// riding after the fleet on the closure path, AP drops, fading and CFO
// drift — and must produce bit-identical receive buffers and identical
// statistics every round.
func TestMultiAPFusedReceiveMatchesClosures(t *testing.T) {
	const nDev, nAPs, rounds = 20, 2, 12
	fused := testMultiAPNetwork(t, nDev, nAPs, 23)
	plain := testMultiAPNetwork(t, nDev, nAPs, 23)
	for i := range plain.rc.txs {
		plain.rc.txs[i].MixedSchedule = nil
	}
	trF, err := NewTrajectory(fused, fullAdversityConfig(rounds))
	if err != nil {
		t.Fatal(err)
	}
	trP, err := NewTrajectory(plain, fullAdversityConfig(rounds))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		sf, err := trF.Step()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := trP.Step()
		if err != nil {
			t.Fatal(err)
		}
		for a := range fused.rc.sigs {
			for j, v := range fused.rc.sigs[a] {
				w := plain.rc.sigs[a][j]
				if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
					t.Fatalf("round %d AP %d sample %d: fused %v, closures %v", r, a, j, v, w)
				}
			}
		}
		if !reflect.DeepEqual(sf, sp) {
			t.Fatalf("round %d: fused stats %+v, closure stats %+v", r, sf, sp)
		}
	}
	st := trF.Stats()
	if st.BurstRounds == 0 || st.SleepEvents == 0 {
		t.Fatalf("trajectory exercised no burst (%d) or no sleeping device (%d)", st.BurstRounds, st.SleepEvents)
	}
}
