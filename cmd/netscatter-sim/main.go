// netscatter-sim runs concurrent NetScatter rounds over a simulated
// office deployment and reports decode statistics and network metrics.
//
// Usage:
//
//	netscatter-sim -devices 256 -rounds 5
//	netscatter-sim -devices 64 -sf 8 -bw 250000 -payload 4
//	netscatter-sim -devices 128 -aps 4 -rounds 3
package main

import (
	"flag"
	"fmt"
	"os"

	"netscatter"
	"netscatter/internal/chirp"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

func main() {
	var (
		devices = flag.Int("devices", 64, "number of concurrent devices")
		rounds  = flag.Int("rounds", 3, "rounds to run")
		payload = flag.Int("payload", 5, "payload bytes per device")
		sf      = flag.Int("sf", 9, "spreading factor")
		bw      = flag.Float64("bw", 500e3, "chirp bandwidth [Hz]")
		skip    = flag.Int("skip", 2, "minimum cyclic-shift spacing")
		seed    = flag.Int64("seed", 1, "simulation seed")
		fading  = flag.Bool("fading", false, "enable channel fading")
		aps     = flag.Int("aps", 1, "access points hearing the deployment (>1 enables cross-AP diversity decode)")
		churn   = flag.Float64("churn", 0, "per-round device sleep probability (>0 runs an adversarial trajectory)")
		doppler = flag.Float64("doppler", 0, "maximum Doppler shift [Hz] for correlated fading drift (>0 runs a trajectory)")
		apDrop  = flag.Float64("ap-drop", 0, "per-round, per-AP dropout probability (>0 runs a trajectory)")
		soft    = flag.Bool("soft", false, "soft cross-AP combining: sum per-AP power spectra and decode the combined arena")
		optAPs  = flag.Bool("opt-placement", false, "optimize AP placement for the generated fleet instead of the fixed line")
	)
	flag.Parse()

	if err := validateFlags(*devices, *rounds, *payload, *skip, *aps); err != nil {
		fmt.Fprintln(os.Stderr, "netscatter-sim:", err)
		os.Exit(2)
	}

	if *churn > 0 || *doppler > 0 || *apDrop > 0 {
		runTrajectory(*devices, *rounds, *payload, *sf, *bw, *skip, *aps, *seed,
			*churn, *doppler, *apDrop, *optAPs)
		return
	}

	if *aps > 1 || *soft || *optAPs {
		runMultiAP(*devices, *rounds, *payload, *sf, *bw, *skip, *aps, *seed, *fading, *soft, *optAPs)
		return
	}

	params := netscatter.Params{SF: *sf, BandwidthHz: *bw, Skip: *skip, Oversample: 1}
	net, err := netscatter.NewNetwork(params, netscatter.Options{
		Devices:      *devices,
		Seed:         *seed,
		PayloadBytes: *payload,
		Fading:       *fading,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("NetScatter network: %d devices, %s SF=%d SKIP>=%d\n",
		*devices, fmtBW(*bw), *sf, *skip)
	fmt.Printf("per-device bitrate %.0f bps, ideal aggregate %.1f kbps, SNR spread %.1f dB\n\n",
		params.DeviceBitRate(), net.AggregateThroughput()/1e3, net.SNRSpread())

	totalOK, totalTx := 0, 0
	for r := 1; r <= *rounds; r++ {
		payloads := map[int][]byte{}
		for i := 0; i < *devices; i++ {
			pl := make([]byte, *payload)
			for j := range pl {
				pl[j] = byte(r*31 + i*7 + j)
			}
			payloads[i] = pl
		}
		round, err := net.Run(payloads)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ok := len(round.Payloads)
		totalOK += ok
		totalTx += *devices
		fmt.Printf("round %d: %3d/%3d frames decoded, %d receiver FFTs, %.1f ms on air, goodput %.1f kbps\n",
			r, ok, *devices, round.FFTs, round.Duration*1e3,
			float64(ok**payload*8)/round.Duration/1e3)
	}
	fmt.Printf("\ntotal: %d/%d frames (%.1f%%)\n",
		totalOK, totalTx, 100*float64(totalOK)/float64(totalTx))
}

// validateFlags rejects nonsensical count flags up front with a clear
// message instead of letting them surface as opaque failures (or silent
// no-op runs, as -rounds 0 used to) deeper in the stack.
func validateFlags(devices, rounds, payload, skip, aps int) error {
	switch {
	case devices < 1:
		return fmt.Errorf("-devices must be at least 1 (got %d)", devices)
	case rounds < 1:
		return fmt.Errorf("-rounds must be at least 1 (got %d)", rounds)
	case payload < 1:
		return fmt.Errorf("-payload must be at least 1 byte (got %d)", payload)
	case skip < 1:
		return fmt.Errorf("-skip must be at least 1 (got %d)", skip)
	case aps < 1:
		return fmt.Errorf("-aps must be at least 1 (got %d)", aps)
	}
	return nil
}

// placeAPs applies the chosen placement strategy: the fixed line, or
// the greedy combined-PER optimizer tuned to the generated fleet.
func placeAPs(dep *deploy.Deployment, aps int, optimize bool) {
	if optimize {
		dep.PlaceAPsOptimized(aps)
	} else {
		dep.PlaceAPs(aps)
	}
}

// runMultiAP drives the k-AP diversity network: every round is decoded
// by each AP independently, then combined by the cross-AP aggregator
// (CRC-preferring best-SNR selection, one count per device). With
// -soft, the per-AP power spectra are additionally summed bin-wise and
// the combined arena decoded as a virtual extra AP.
func runMultiAP(devices, rounds, payload, sf int, bw float64, skip, aps int, seed int64, fading, soft, optAPs bool) {
	rng := dsp.NewRand(seed)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, devices, bw, rng)
	placeAPs(dep, aps, optAPs)

	cfg := sim.DefaultConfig()
	cfg.Params = chirp.Params{SF: sf, BW: bw, Oversample: 1}
	cfg.Skip = skip
	cfg.PayloadBytes = payload
	cfg.Fading = fading
	net, err := sim.NewMultiAPNetwork(cfg, dep, aps, devices, seed+1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	net.SetSoftCombining(soft)

	placement := "line"
	if optAPs {
		placement = "optimized"
	}
	fmt.Printf("NetScatter multi-AP network: %d devices, %d APs (%s placement), %s SF=%d SKIP>=%d\n",
		devices, aps, placement, fmtBW(bw), sf, skip)
	fmt.Printf("best-AP SNR spread %.1f dB (single-AP deployment: %.1f dB)\n\n",
		dep.BestSNRSpreadDB(), dep.SNRSpreadDB())

	totalOK, totalTx, totalBest, totalSoft := 0, 0, 0, 0
	for r := 1; r <= rounds; r++ {
		stats, err := net.RunRound(devices)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		best := 0
		for _, s := range stats.PerAP {
			if s.FramesOK > best {
				best = s.FramesOK
			}
		}
		totalOK += stats.Combined.FramesOK
		totalBest += best
		totalTx += devices
		fmt.Printf("round %d: combined %3d/%3d frames (PER %.3f), best single AP %3d, diversity +%d\n",
			r, stats.Combined.FramesOK, devices, stats.Combined.PER(),
			best, stats.DiversityFramesGained())
		if soft {
			totalSoft += stats.Soft.FramesOK
			fmt.Printf("         soft: %3d/%3d frames (PER %.3f), spectral combining +%d\n",
				stats.Soft.FramesOK, devices, stats.Soft.PER(), stats.SoftFramesGained())
		}
		for a, s := range stats.PerAP {
			fmt.Printf("         AP %d: %3d/%3d frames, %d detected, BER %.4f\n",
				a, s.FramesOK, devices, s.Detected, s.BER())
		}
	}
	fmt.Printf("\ntotal: combined %d/%d frames (%.1f%%), best-single-AP %d (%.1f%%)\n",
		totalOK, totalTx, 100*float64(totalOK)/float64(totalTx),
		totalBest, 100*float64(totalBest)/float64(totalTx))
	if soft {
		fmt.Printf("soft combining: %d/%d frames (%.1f%%), +%d over selection\n",
			totalSoft, totalTx, 100*float64(totalSoft)/float64(totalTx), totalSoft-totalOK)
	}
}

// runTrajectory evolves the deployment through a time-varying
// adversarial world — correlated fading drift at the given Doppler,
// device duty-cycling, per-round AP dropout — and reports PER over
// time plus the recovery pipeline's books (skips, re-associations,
// recovery latency, loss attribution).
func runTrajectory(devices, rounds, payload, sf int, bw float64, skip, aps int, seed int64, churn, doppler, apDrop float64, optAPs bool) {
	rng := dsp.NewRand(seed)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, devices, bw, rng)
	placeAPs(dep, aps, optAPs)

	cfg := sim.DefaultConfig()
	cfg.Params = chirp.Params{SF: sf, BW: bw, Oversample: 1}
	cfg.Skip = skip
	cfg.PayloadBytes = payload
	net, err := sim.NewMultiAPNetwork(cfg, dep, aps, devices, seed+1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr, err := sim.NewTrajectory(net, sim.TrajectoryConfig{
		Rounds:     rounds,
		Seed:       seed,
		DopplerHz:  doppler,
		SleepProb:  churn,
		APDropProb: apDrop,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("NetScatter trajectory: %d devices, %d APs, %s SF=%d, %d rounds\n",
		devices, aps, fmtBW(bw), sf, rounds)
	fmt.Printf("adversity: doppler %.1f Hz, churn %.2f, AP dropout %.2f\n\n", doppler, churn, apDrop)

	for r := 1; r <= rounds; r++ {
		stats, err := tr.Step()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("round %2d: %3d active, %3d/%3d frames (PER %.3f)\n",
			r, stats.Combined.Devices, stats.Combined.FramesOK,
			stats.Combined.Devices, stats.Combined.PER())
	}

	s := tr.Stats()
	fmt.Printf("\nmean PER %.3f over %d rounds (%d all-lost)\n", s.MeanPER(), s.Rounds, s.AllLostRounds)
	fmt.Printf("churn: %d sleeps, %d wakes; power rule skipped %d device-rounds\n",
		s.SleepEvents, s.WakeEvents, s.SkippedRounds)
	fmt.Printf("recovery: %d AP-side losses, %d re-associations, mean latency %.1f rounds (p90 %.0f) over %d recoveries\n",
		s.DevicesLostByAP, s.Reassociations, s.MeanRecoveryLatency(),
		s.RecoveryLatencyQuantile(0.9), len(s.RecoveryLatencies))
	fmt.Printf("losses: %d dropout, %d interference, %d fading, %d other; %d burst rounds, %d AP-down rounds\n",
		s.LostToDropout, s.LostToInterference, s.LostToFading, s.LostToOther,
		s.BurstRounds, s.APDownRounds)
}

func fmtBW(bw float64) string {
	if bw >= 1e6 {
		return fmt.Sprintf("%.3g MHz", bw/1e6)
	}
	return fmt.Sprintf("%.3g kHz", bw/1e3)
}
