package main

import (
	"fmt"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/serve"
	"netscatter/internal/sim"
)

// World construction shared by the workloads. Every world is built the
// way the service builds a tenant (serve.RunLocal and POST
// /v1/deployments): geometry from Seed, network from Seed+1, trajectory
// when adversity is set. The round workloads cross-check their worlds
// against serve.RunLocal, so a drift between this file and the service
// fails the output check.

// deriveSeed maps the benchmark seed and a per-use salt to a nonzero
// deployment seed (0 would select the service default).
func deriveSeed(seed int64, salt uint64) int64 {
	st := dsp.StreamAt(seed, salt)
	if s := int64(st.Uint64()); s != 0 {
		return s
	}
	return 1
}

// withDefaults applies the service's documented deployment defaults.
func withDefaults(c serve.DeploymentConfig) serve.DeploymentConfig {
	if c.APs == 0 {
		c.APs = 1
	}
	if c.SF == 0 {
		c.SF = 9
	}
	if c.BandwidthHz == 0 {
		c.BandwidthHz = 500e3
	}
	if c.Skip == 0 {
		c.Skip = 2
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// simConfig is the simulator configuration of a deployment config.
func simConfig(c serve.DeploymentConfig) sim.Config {
	sc := sim.DefaultConfig()
	sc.Params = chirp.Params{SF: c.SF, BW: c.BandwidthHz, Oversample: 1}
	sc.Skip = c.Skip
	sc.PayloadBytes = c.PayloadBytes
	return sc
}

// generate builds a config's geometry: devices from Seed, then the AP
// placement.
func generate(c serve.DeploymentConfig) *deploy.Deployment {
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, c.Devices, c.BandwidthHz, dsp.NewRand(c.Seed))
	if c.OptimizePlacement {
		dep.PlaceAPsOptimized(c.APs)
	} else {
		dep.PlaceAPs(c.APs)
	}
	return dep
}

// newNetwork associates a generated deployment (deploy + mac inside
// the sim constructor) and sets the soft-combining flag.
func newNetwork(c serve.DeploymentConfig, dep *deploy.Deployment) (*sim.MultiAPNetwork, error) {
	net, err := sim.NewMultiAPNetwork(simConfig(c), dep, c.APs, c.Devices, c.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("building %d-device %d-AP network: %w", c.Devices, c.APs, err)
	}
	net.SetSoftCombining(c.SoftCombining)
	return net, nil
}

// newTrajectory attaches the adversity world exactly as a tenant does.
func newTrajectory(c serve.DeploymentConfig, net *sim.MultiAPNetwork) (*sim.Trajectory, error) {
	a := c.Adversity
	return sim.NewTrajectory(net, sim.TrajectoryConfig{
		Seed:          c.Seed,
		DopplerHz:     a.DopplerHz,
		Correlation:   a.Correlation,
		CFODriftHz:    a.CFODriftHz,
		MobilityStepM: a.MobilityStepM,
		SleepProb:     a.SleepProb,
		WakeProb:      a.WakeProb,
		BurstProb:     a.BurstProb,
		APDropProb:    a.APDropProb,
		NoSeries:      true,
	})
}

// buildNet builds a static (no adversity) deployment config's network.
func buildNet(c serve.DeploymentConfig) (*sim.MultiAPNetwork, error) {
	c = withDefaults(c)
	return newNetwork(c, generate(c))
}

// marginSymbols is the tail room sim gives a round's receive buffers
// (MultiChannel.FrameLength(frameSymbols, 2)).
const marginSymbols = 2

// channelSamples computes a config's channel work per round: samples
// accumulated into the receive buffers (devices × APs × frame samples)
// and noise samples drawn (APs × buffer length).
func channelSamples(c serve.DeploymentConfig) (accumulated, noise int) {
	n := simConfig(c).Params.N()
	frame := core.PreambleSymbols + c.PayloadBytes*8 + core.CRCBits
	return c.Devices * c.APs * frame * n, c.APs * (frame + marginSymbols) * n
}

// totals are the output-check counters of a run.
type totals struct {
	Rounds       int    `json:"rounds"`
	DeviceRounds int64  `json:"device_rounds"`
	Detected     int64  `json:"detected"`
	FramesOK     int64  `json:"frames_ok"`
	BitErrors    int64  `json:"bit_errors"`
	TotalBits    int64  `json:"total_bits"`
	SoftFramesOK int64  `json:"soft_frames_ok"`
	SoftRounds   int    `json:"soft_rounds"`
	SHA256       string `json:"sha256,omitempty"`
}

func totalsOf(s sim.Snapshot) totals {
	return totals{
		Rounds:       s.Rounds,
		DeviceRounds: s.Devices,
		Detected:     s.Detected,
		FramesOK:     s.FramesOK,
		BitErrors:    s.BitErrors,
		TotalBits:    s.TotalBits,
		SoftFramesOK: s.SoftFramesOK,
		SoftRounds:   s.SoftRounds,
	}
}

// per is the delivered packet error rate: the soft-combined outcome
// when the run combined soft, the selection outcome otherwise.
func (t totals) per() float64 {
	if t.DeviceRounds == 0 {
		return 0
	}
	ok := t.FramesOK
	if t.SoftRounds > 0 {
		ok = t.SoftFramesOK
	}
	return 1 - float64(ok)/float64(t.DeviceRounds)
}

// decodeRatios are the network-level detection share (detected ÷
// device-rounds) and CRC share (CRC-valid frames ÷ detected).
func (t totals) decodeRatios() (detect, crcOK float64) {
	return ratio(float64(t.Detected), float64(t.DeviceRounds)), ratio(float64(t.FramesOK), float64(t.Detected))
}

// ber is the payload bit error rate over detected devices.
func (t totals) ber() float64 {
	return ratio(float64(t.BitErrors), float64(t.TotalBits))
}
