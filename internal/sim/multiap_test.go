package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"

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

// TestMultiAPRunRoundSteadyStateZeroAlloc extends the single-AP round
// context's allocation gate to the multi-AP path: after the warm-up
// round, a k-AP round — template fan-out, k receive buffers, k decodes
// and the aggregation — touches no heap at GOMAXPROCS=1.
func TestMultiAPRunRoundSteadyStateZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	net := testMultiAPNetwork(t, 16, 2, 3)
	if _, err := net.RunRound(16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := net.RunRound(16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state multi-AP RunRound allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMultiAPRoundDeterministicPerSeed: two networks built from the
// same seed produce identical combined and per-AP statistics, round
// after round.
func TestMultiAPRoundDeterministicPerSeed(t *testing.T) {
	a := testMultiAPNetwork(t, 24, 3, 11)
	b := testMultiAPNetwork(t, 24, 3, 11)
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
			t.Fatalf("round %d diverged: %+v vs %+v", round, sa, sb)
		}
	}
}

// TestMultiAPRoundBitIdenticalAcrossGOMAXPROCSRace pins the tentpole's
// sim-level determinism contract under the race detector: for a fixed
// seed, every round's combined and per-AP statistics are identical
// across GOMAXPROCS ∈ {1, 2, 4}. The worker pool fans out template
// synthesis, the (AP, tile) grid and k parallel decodes; none of that
// scheduling may leak into the outcome.
func TestMultiAPRoundBitIdenticalAcrossGOMAXPROCSRace(t *testing.T) {
	const nDev = 20
	const nAPs = 2
	const rounds = 3

	type roundOut struct {
		Combined RoundStats
		PerAP    []RoundStats
	}
	run := func(procs int) []roundOut {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		net := testMultiAPNetwork(t, nDev, nAPs, 17)
		var outs []roundOut
		for r := 0; r < rounds; r++ {
			stats, err := net.RunRound(nDev)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, roundOut{stats.Combined, append([]RoundStats(nil), stats.PerAP...)})
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
