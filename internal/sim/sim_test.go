package sim

import (
	"math"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/simtest"
)

// testDeployment delegates to the shared seed-pinned constructor; the
// sim suites' pinned statistics ride on its seeds staying put.
func testDeployment(t *testing.T, n int, seed int64) *deploy.Deployment {
	t.Helper()
	return simtest.Deployment(t, n, seed)
}

func TestTimingPaperNumbers(t *testing.T) {
	tm := DefaultTiming()
	p := chirp.Default500k9
	// Config 1 round with 40-bit payload+CRC: 0.2 ms query + 8.192 ms
	// preamble + 40.96 ms payload = 49.35 ms -> 207 kbps link rate for
	// 256 devices (the paper's Fig. 18 level).
	round := tm.NetScatterRoundSeconds(p, Config1, 4)
	if math.Abs(round-0.049352) > 1e-5 {
		t.Fatalf("config-1 round = %v s", round)
	}
	link := 256 * 40 / round / 1e3
	if math.Abs(link-207.5) > 1 {
		t.Fatalf("ideal 256-device link rate = %v kbps, want ~207.5", link)
	}
	// Config 2 adds the 1760-bit (11 ms) query.
	round2 := tm.NetScatterRoundSeconds(p, Config2, 4)
	if math.Abs(round2-round-0.0108) > 1e-4 {
		t.Fatalf("config-2 overhead = %v", round2-round)
	}
	// LoRa baseline per-device time ~13 ms (query + preamble + 40 bits
	// at 8.7 kbps).
	per := tm.LoRaDeviceSeconds(p, FixedLoRaBitrate, 4)
	if math.Abs(per-0.01297) > 2e-4 {
		t.Fatalf("per-device TDMA time = %v", per)
	}
}

func TestRateForSNR(t *testing.T) {
	if got := RateForSNR(20, 500e3); got.BitRate != 32e3 {
		t.Fatalf("high SNR rate = %v", got.BitRate)
	}
	low := RateForSNR(-40, 500e3)
	if low.Params.SF != 12 {
		t.Fatalf("out-of-range SNR should fall back to SF12, got SF%d", low.Params.SF)
	}
}

// newOneAPNetwork associates the first maxDevices of dep with a
// single-AP infrastructure — the simulator's single-AP round.
func newOneAPNetwork(t *testing.T, cfg Config, dep *deploy.Deployment, maxDevices int, seed int64) *MultiAPNetwork {
	t.Helper()
	net, err := NewMultiAPNetwork(cfg, dep, 1, maxDevices, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// effectiveSNRs returns the post-power-control SNRs of a one-AP
// network's first k devices.
func effectiveSNRs(net *MultiAPNetwork, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = net.dep.Devices[i].UplinkSNRdB + net.gains[i]
	}
	return out
}

func TestNetworkRoundSmallClean(t *testing.T) {
	dep := testDeployment(t, 16, 1)
	cfg := DefaultConfig()
	cfg.PayloadBytes = 3
	net := newOneAPNetwork(t, cfg, dep, 16, 2)
	round, err := net.RunRound(16)
	if err != nil {
		t.Fatal(err)
	}
	stats := round.Combined
	if stats.Detected < 15 {
		t.Fatalf("detected %d/16", stats.Detected)
	}
	if stats.FramesOK < 14 {
		t.Fatalf("framesOK %d/16", stats.FramesOK)
	}
	if stats.GoodFraction() < 0.9 {
		t.Fatalf("good fraction %v", stats.GoodFraction())
	}
}

func TestNetworkAutoSkipSpreads(t *testing.T) {
	dep := testDeployment(t, 32, 3)
	net := newOneAPNetwork(t, DefaultConfig(), dep, 32, 4)
	// 32 devices in 512 bins -> effective SKIP 16.
	if got := net.Book().Skip(); got != 16 {
		t.Fatalf("effective skip = %d, want 16", got)
	}
}

func TestNetworkErrors(t *testing.T) {
	dep := testDeployment(t, 4, 5)
	cfg := DefaultConfig()
	if _, err := NewMultiAPNetwork(cfg, dep, 1, 10, 1); err == nil {
		t.Error("oversubscribed deployment accepted")
	}
	cfg.Skip = 0
	if _, err := NewMultiAPNetwork(cfg, dep, 1, 4, 1); err == nil {
		t.Error("zero skip accepted")
	}
	net := newOneAPNetwork(t, DefaultConfig(), dep, 4, 1)
	if _, err := net.RunRound(8); err == nil {
		t.Error("round larger than network accepted")
	}
}

func TestPowerControlTightensSpread(t *testing.T) {
	dep := testDeployment(t, 64, 6)
	netOn := newOneAPNetwork(t, DefaultConfig(), dep, 64, 7)
	cfgOff := DefaultConfig()
	cfgOff.DisablePowerControl = true
	netOff := newOneAPNetwork(t, cfgOff, dep, 64, 7)
	spread := func(snrs []float64) float64 {
		min, max := dsp.MinMax(snrs)
		return max - min
	}
	on := spread(effectiveSNRs(netOn, 64))
	off := spread(effectiveSNRs(netOff, 64))
	if on >= off {
		t.Fatalf("power control did not tighten the spread: %v vs %v", on, off)
	}
}

func TestPowerAwareAllocationOrdersSlots(t *testing.T) {
	dep := testDeployment(t, 64, 8)
	net := newOneAPNetwork(t, DefaultConfig(), dep, 64, 9)
	// Device in slot 0 must be the strongest.
	snrs := effectiveSNRs(net, 64)
	var slot0SNR float64
	maxSNR := math.Inf(-1)
	for i := 0; i < 64; i++ {
		if net.slots[i] == 0 {
			slot0SNR = snrs[i]
		}
		if snrs[i] > maxSNR {
			maxSNR = snrs[i]
		}
	}
	if slot0SNR != maxSNR {
		t.Fatalf("slot 0 has %v dB, strongest is %v dB", slot0SNR, maxSNR)
	}
}

func TestSchemeMetricsShapes(t *testing.T) {
	p := chirp.Default500k9
	tm := DefaultTiming()
	// Ideal NetScatter PHY rate is exactly N·976.56.
	m := NetScatterIdealMetrics(256, p, tm, Config1, 4)
	if math.Abs(m.PHYRateBps-256*p.OOKBitRate()) > 1 {
		t.Fatalf("ideal PHY = %v", m.PHYRateBps)
	}
	// Fixed LoRa: flat PHY rate, latency linear in N.
	f64 := LoRaFixedMetrics(64, p, tm, 4)
	f256 := LoRaFixedMetrics(256, p, tm, 4)
	if f64.PHYRateBps != f256.PHYRateBps {
		t.Fatal("fixed PHY rate should not depend on N")
	}
	if math.Abs(f256.LatencySec/f64.LatencySec-4) > 0.01 {
		t.Fatal("fixed latency not linear in N")
	}
	// Rate adaptation beats fixed on latency for a realistic office.
	dep := testDeployment(t, 64, 10)
	ra := LoRaRateAdaptedMetrics(dep.Devices, tm, 4)
	fixed := LoRaFixedMetrics(64, p, tm, 4)
	if ra.LatencySec >= fixed.LatencySec {
		t.Fatalf("rate adaptation slower than fixed: %v vs %v", ra.LatencySec, fixed.LatencySec)
	}
}

func TestNetScatterBeatsBaselinesAtScale(t *testing.T) {
	// The paper's headline: at 256 devices NetScatter's link-layer
	// rate and latency beat both baselines by an order of magnitude.
	dep := testDeployment(t, 256, 11)
	cfg := DefaultConfig()
	cfg.PayloadBytes = 4
	net := newOneAPNetwork(t, cfg, dep, 256, 12)
	round, err := net.RunRound(256)
	if err != nil {
		t.Fatal(err)
	}
	stats := round.Combined
	p := chirp.Default500k9
	tm := DefaultTiming()
	ns := NetScatterMetrics(stats, p, 4)
	fixed := LoRaFixedMetrics(256, p, tm, 4)
	ra := LoRaRateAdaptedMetrics(dep.Devices, tm, 4)

	if ns.LinkRateBps < 10*fixed.LinkRateBps {
		t.Fatalf("link gain over fixed only %.1fx", ns.LinkRateBps/fixed.LinkRateBps)
	}
	if ns.LinkRateBps < 4*ra.LinkRateBps {
		t.Fatalf("link gain over rate adaptation only %.1fx", ns.LinkRateBps/ra.LinkRateBps)
	}
	if fixed.LatencySec < 30*ns.LatencySec {
		t.Fatalf("latency gain only %.1fx", fixed.LatencySec/ns.LatencySec)
	}
	if stats.GoodFraction() < 0.8 {
		t.Fatalf("good fraction %v at 256 devices", stats.GoodFraction())
	}
}

func TestRoundStatsAccounting(t *testing.T) {
	s := RoundStats{Devices: 4, Detected: 3, TotalBits: 30, BitErrors: 3, ScheduledBits: 40}
	if s.BER() != 0.1 {
		t.Fatalf("BER = %v", s.BER())
	}
	if s.GoodBits() != 27 {
		t.Fatalf("GoodBits = %d", s.GoodBits())
	}
	if s.GoodFraction() != 27.0/40 {
		t.Fatalf("GoodFraction = %v", s.GoodFraction())
	}
	empty := RoundStats{}
	if empty.BER() != 0 || empty.GoodFraction() != 0 {
		t.Fatal("zero-value stats not safe")
	}
}

func TestQueryConfigBits(t *testing.T) {
	if Config1.QueryBits() != 32 || Config2.QueryBits() != 1760 {
		t.Fatal("query sizes diverge from §4.4")
	}
	_ = core.CRCBits
}
