package sim

import (
	"testing"

	"netscatter/internal/dsp"
	"netscatter/internal/mac"
)

// TestGroupScheduleSweepsWholeNetwork runs the §3.3.3 grouping end to
// end: more devices than one concurrent round supports are split into
// signal-strength groups, each group answers its own query round, and a
// full sweep collects from everyone with bounded per-group SNR spread.
func TestGroupScheduleSweepsWholeNetwork(t *testing.T) {
	dep := testDeployment(t, 192, 21)
	// Place the AP before slicing: every sub-deployment then carries the
	// parent's one-AP links, and no network re-places a shared device.
	dep.PlaceAPs(1)
	ids := make([]uint8, 192)
	snrs := make([]float64, 192)
	for i := range ids {
		ids[i] = uint8(i)
		snrs[i] = dep.Devices[i].UplinkSNRdB
	}
	// Cap groups at 96 devices and 18 dB spread: tighter rounds than
	// one 192-device free-for-all.
	groups, err := mac.PlanGroups(ids, snrs, 96, 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 2 {
		t.Fatalf("expected >= 2 groups, got %d", len(groups))
	}

	sched := mac.NewSchedule(groups)
	cfg := DefaultConfig()
	cfg.PayloadBytes = 4

	seen := map[uint8]bool{}
	var totalGood, totalSched float64
	for round := 0; round < sched.RoundsPerSweep(); round++ {
		g := sched.Next()
		// Build a per-group sub-deployment preserving device physics.
		sub := *dep
		sub.Devices = nil
		for _, id := range g.Members {
			sub.Devices = append(sub.Devices, dep.Devices[id])
			seen[id] = true
		}
		net, err := NewMultiAPNetwork(cfg, &sub, 1, len(g.Members), int64(round)+50)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunRound(len(g.Members))
		if err != nil {
			t.Fatal(err)
		}
		stats := res.Combined
		totalGood += float64(stats.GoodBits())
		totalSched += float64(stats.ScheduledBits)
		if frac := stats.GoodFraction(); frac < 0.75 {
			t.Fatalf("group %d (spread %.1f dB, %d devices) good fraction %.2f",
				g.ID, g.SpreadDB(), len(g.Members), frac)
		}
	}
	if len(seen) != 192 {
		t.Fatalf("sweep covered %d of 192 devices", len(seen))
	}
	if totalGood/totalSched < 0.85 {
		t.Fatalf("sweep goodput %.2f", totalGood/totalSched)
	}
	_ = dsp.Mean // keep dsp linked if assertions change
}
