package exper

import (
	"fmt"
	"sync"

	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/pool"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "F17",
		Title: "Network PHY rate vs number of devices",
		Ref:   "Fig. 17",
		Run:   runFig17,
	})
	register(Experiment{
		ID:    "F18",
		Title: "Link-layer data rate vs number of devices",
		Ref:   "Fig. 18",
		Run:   runFig18,
	})
	register(Experiment{
		ID:    "F19",
		Title: "Network latency vs number of devices",
		Ref:   "Fig. 19",
		Run:   runFig19,
	})
}

// sweepPoint is the full set of scheme metrics at one network size.
type sweepPoint struct {
	N          int
	FramesOK   float64 // mean CRC-valid frames per NetScatter round
	BER        float64
	NS1, NS2   sim.SchemeMetrics // NetScatter measured, Config 1 and 2
	Ideal1     sim.SchemeMetrics
	Fixed      sim.SchemeMetrics
	RateAdapt  sim.SchemeMetrics
	Deployment int
}

type sweepKey struct {
	seed  int64
	quick bool
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[sweepKey][]sweepPoint{}
)

// networkSweep runs the §4.4 deployment once per (seed, quick) and
// caches it: Figs. 17, 18 and 19 are three views of the same experiment.
func networkSweep(cfg Config) ([]sweepPoint, error) {
	key := sweepKey{cfg.Seed, cfg.Quick}
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if pts, ok := sweepCache[key]; ok {
		return pts, nil
	}

	rng := dsp.NewRand(cfg.Seed)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, 256, 500e3, rng)
	// Every unit below builds a one-AP network over this deployment.
	// Place the AP once, before the fan-out: a constructor handed an
	// unplaced deployment places it, and concurrent placements race.
	dep.PlaceAPs(1)
	ns := []int{1, 16, 32, 64, 96, 128, 160, 192, 224, 256}
	trials := 3
	if cfg.Quick {
		ns = []int{1, 16, 64, 128, 256}
		trials = 1
	}

	scfg := sim.DefaultConfig()
	// §4.4 link-layer experiments set payload+CRC to 40 bits.
	scfg.PayloadBytes = 4
	t := scfg.Timing
	p := scfg.Params
	payload := scfg.PayloadBytes
	payloadBits := payload*8 + 8

	// Every (network size, trial) unit owns its seed, network and rng, so
	// the units fan out across the shared worker pool; aggregation below
	// runs in deterministic unit order, keeping the tables identical to a
	// serial sweep at any GOMAXPROCS.
	type trialOut struct {
		stats sim.RoundStats
		err   error
	}
	outs := make([]trialOut, len(ns)*trials)
	pool.ForEach(len(outs), func(u int) {
		n := ns[u/trials]
		trial := u % trials
		net, err := sim.NewMultiAPNetwork(scfg, dep, 1, n, cfg.Seed*1000+int64(n)*10+int64(trial))
		if err != nil {
			outs[u].err = err
			return
		}
		round, err := net.RunRound(n)
		outs[u].stats, outs[u].err = round.Combined, err
	})
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
	}

	var pts []sweepPoint
	for nIdx, n := range ns {
		var okSum, berSum, goodSum float64
		for trial := 0; trial < trials; trial++ {
			stats := outs[nIdx*trials+trial].stats
			okSum += float64(stats.FramesOK)
			berSum += stats.BER()
			goodSum += stats.GoodFraction()
		}
		meanOK := okSum / float64(trials)
		goodBits := int(goodSum/float64(trials)*float64(n*payloadBits) + 0.5)
		stats := sim.RoundStats{
			Devices:       n,
			FramesOK:      int(meanOK + 0.5),
			TotalBits:     goodBits,
			ScheduledBits: n * payloadBits,
			RoundSecs:     t.NetScatterRoundSeconds(p, sim.Config1, payload),
		}
		stats2 := stats
		stats2.RoundSecs = t.NetScatterRoundSeconds(p, sim.Config2, payload)

		pts = append(pts, sweepPoint{
			N:          n,
			FramesOK:   meanOK,
			BER:        berSum / float64(trials),
			NS1:        sim.NetScatterMetrics(stats, p, payload),
			NS2:        sim.NetScatterMetrics(stats2, p, payload),
			Ideal1:     sim.NetScatterIdealMetrics(n, p, t, sim.Config1, payload),
			Fixed:      sim.LoRaFixedMetrics(n, p, t, payload),
			RateAdapt:  sim.LoRaRateAdaptedMetrics(dep.Devices[:n], t, payload),
			Deployment: len(dep.Devices),
		})
	}
	sweepCache[key] = pts
	return pts, nil
}

func runFig17(cfg Config) (*Result, error) {
	pts, err := networkSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "F17", Title: "Network PHY rate (Fig. 17)"}
	t := Table{Columns: []string{"N", "LoRa-BS fixed[kbps]", "LoRa-BS rate-adapt", "NetScatter(ideal)", "NetScatter"}}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N),
			f(p.Fixed.PHYRateBps / 1e3),
			f(p.RateAdapt.PHYRateBps / 1e3),
			f(p.Ideal1.PHYRateBps / 1e3),
			f(p.NS1.PHYRateBps / 1e3),
		})
	}
	res.Tables = append(res.Tables, t)
	last := pts[len(pts)-1]
	res.Notes = append(res.Notes,
		fmt.Sprintf("at N=%d: NetScatter/fixed = %.1fx, NetScatter/rate-adapt = %.1fx (paper: 26.2x, 6.8x)",
			last.N, last.NS1.PHYRateBps/last.Fixed.PHYRateBps, last.NS1.PHYRateBps/last.RateAdapt.PHYRateBps),
		fmt.Sprintf("NetScatter decodes %.1f/%d frames at full SKIP=2 density (payload BER %.2e)",
			last.FramesOK, last.N, last.BER))
	return res, nil
}

func runFig18(cfg Config) (*Result, error) {
	pts, err := networkSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "F18", Title: "Link-layer data rate (Fig. 18)"}
	t := Table{Columns: []string{"N", "LoRa-BS fixed[kbps]", "LoRa-BS rate-adapt", "NetScatter cfg1", "NetScatter cfg2"}}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N),
			f(p.Fixed.LinkRateBps / 1e3),
			f(p.RateAdapt.LinkRateBps / 1e3),
			f(p.NS1.LinkRateBps / 1e3),
			f(p.NS2.LinkRateBps / 1e3),
		})
	}
	res.Tables = append(res.Tables, t)
	last := pts[len(pts)-1]
	res.Notes = append(res.Notes,
		fmt.Sprintf("at N=%d: cfg1 gains %.1fx over fixed and %.1fx over rate adaptation (paper: 61.9x, 14.1x)",
			last.N, last.NS1.LinkRateBps/last.Fixed.LinkRateBps, last.NS1.LinkRateBps/last.RateAdapt.LinkRateBps),
		fmt.Sprintf("cfg2 gains %.1fx / %.1fx (paper: 50.9x, 11.6x)",
			last.NS2.LinkRateBps/last.Fixed.LinkRateBps, last.NS2.LinkRateBps/last.RateAdapt.LinkRateBps))
	return res, nil
}

func runFig19(cfg Config) (*Result, error) {
	pts, err := networkSweep(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "F19", Title: "Network latency (Fig. 19)"}
	t := Table{Columns: []string{"N", "LoRa-BS fixed[ms]", "LoRa-BS rate-adapt", "NetScatter cfg1", "NetScatter cfg2"}}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.N),
			f(p.Fixed.LatencySec * 1e3),
			f(p.RateAdapt.LatencySec * 1e3),
			f(p.NS1.LatencySec * 1e3),
			f(p.NS2.LatencySec * 1e3),
		})
	}
	res.Tables = append(res.Tables, t)
	last := pts[len(pts)-1]
	res.Notes = append(res.Notes,
		fmt.Sprintf("at N=%d: latency reductions %.1fx (fixed) and %.1fx (rate-adapt) for cfg1 (paper: 67.0x, 15.3x)",
			last.N, last.Fixed.LatencySec/last.NS1.LatencySec, last.RateAdapt.LatencySec/last.NS1.LatencySec),
		"NetScatter latency is one shared round regardless of N — the key benefit of concurrency")
	return res, nil
}
