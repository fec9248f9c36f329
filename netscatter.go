// Package netscatter is a from-scratch reproduction of "NetScatter:
// Enabling Large-Scale Backscatter Networks" (Hessar, Najafi, Gollakota;
// NSDI 2019): the first wireless protocol scaling to hundreds of
// concurrent backscatter transmissions via distributed chirp spread
// spectrum coding — each device ON-OFF keys its own cyclic shift of a
// shared chirp, and the access point decodes everyone with a single FFT
// per symbol.
//
// This package is the public facade: a small API over the simulator's
// one round engine. A Network deploys tags across an office floor and
// steps internal/sim's network, wrapped in a trajectory so every device
// re-runs the §3.2.3 power rule on each query, with the caller's
// payloads:
//
//	net, _ := netscatter.NewNetwork(netscatter.DefaultParams(), netscatter.Options{Devices: 64, Seed: 1, PayloadBytes: 2})
//	round, _ := net.Run(map[int][]byte{0: []byte("hi"), 5: []byte("yo")})
//	fmt.Println(round.Payloads[0], round.Payloads[5])
//
// The cmd/ binaries and examples/ directories exercise this API; the
// internal/exper registry regenerates every table and figure of the
// paper's evaluation.
package netscatter

import (
	"fmt"

	"netscatter/internal/chirp"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// Params is the physical-layer configuration.
type Params struct {
	// SF is the spreading factor (9 in the paper's deployment).
	SF int
	// BandwidthHz is the chirp bandwidth (500 kHz in the deployment).
	BandwidthHz float64
	// Skip is the minimum cyclic-shift spacing between devices (2 in
	// the deployment; larger spacing is used automatically when fewer
	// devices than slots are present).
	Skip int
	// Oversample > 1 enables the bandwidth-aggregation mode of §3.1.
	Oversample int
}

// DefaultParams returns the deployed configuration: 500 kHz, SF 9,
// SKIP 2 — 256 concurrent devices at 976 bps each.
func DefaultParams() Params {
	return Params{SF: 9, BandwidthHz: 500e3, Skip: 2, Oversample: 1}
}

func (p Params) chirp() chirp.Params {
	return chirp.Params{SF: p.SF, BW: p.BandwidthHz, Oversample: p.Oversample}
}

// DeviceBitRate returns the per-device ON-OFF keying bitrate: BW/2^SF.
func (p Params) DeviceBitRate() float64 { return p.chirp().OOKBitRate() }

// MaxDevices returns the number of concurrent devices supported:
// Oversample·2^SF/Skip, or 0 for a Skip below 1.
func (p Params) MaxDevices() int {
	if p.Skip < 1 {
		return 0
	}
	return p.chirp().N() / p.Skip
}

// Options configures a simulated network.
type Options struct {
	// Devices is the number of tags to deploy (<= Params.MaxDevices).
	Devices int
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// PayloadBytes per device per round (default 5, as in §4.4). Every
	// payload a Run sends must be this long.
	PayloadBytes int
	// Office overrides the floor plan (default: the 12-room 40x20 m
	// office of the paper's deployment). The AP sits at its AP point.
	Office *deploy.FloorPlan
	// Fading evolves each device's channel as a correlated Ricean fade
	// (K = 10 dB, round-to-round correlation 0.97).
	Fading bool
}

// Network is a simulated NetScatter deployment: an AP plus Devices tags
// placed across an office floor, associated and ready to run concurrent
// rounds.
type Network struct {
	params       Params
	payloadBytes int
	dep          *deploy.Deployment
	net          *sim.MultiAPNetwork
	traj         *sim.Trajectory
	frames       [][]byte // a round's payloads by device; nil is silent
	devices      []*Device
}

// Device is one simulated tag.
type Device struct {
	// Index is the device's position in the network (0-based).
	Index int
	// Shift is its assigned cyclic shift.
	Shift int
	// Slot is its code-book slot.
	Slot int
	// SNRdB is its uplink SNR at maximum power gain.
	SNRdB float64
	// GainDB is its current backscatter power-gain setting.
	GainDB float64
	// Position on the floor plan, in meters.
	Position deploy.Point
	// DownlinkRSSIdBm is the AP query strength at the tag's envelope
	// detector — the input to the power-adaptation loop.
	DownlinkRSSIdBm float64
}

// NewNetwork deploys and associates a network. The geometry comes from
// Seed and the round engine from Seed+1, as netscatter-sim and
// netscatter-serve build theirs.
func NewNetwork(params Params, opts Options) (*Network, error) {
	cp := params.chirp()
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if params.Skip < 1 {
		return nil, fmt.Errorf("netscatter: Params.Skip must be at least 1 (got %d)", params.Skip)
	}
	if opts.Devices <= 0 {
		return nil, fmt.Errorf("netscatter: Options.Devices must be positive")
	}
	if opts.Devices > params.MaxDevices() {
		return nil, fmt.Errorf("netscatter: %d devices exceed capacity %d", opts.Devices, params.MaxDevices())
	}
	if opts.PayloadBytes < 0 {
		return nil, fmt.Errorf("netscatter: Options.PayloadBytes must not be negative (got %d)", opts.PayloadBytes)
	}
	if opts.PayloadBytes == 0 {
		opts.PayloadBytes = 5
	}
	plan := deploy.DefaultOffice
	if opts.Office != nil {
		plan = *opts.Office
	}
	dep := deploy.Generate(plan, radio.DefaultLinkBudget, opts.Devices, params.BandwidthHz, dsp.NewRand(opts.Seed))
	dep.PlaceAPsAt([]deploy.Point{plan.AP})
	cfg := sim.DefaultConfig()
	cfg.Params = cp
	cfg.Skip = params.Skip
	cfg.PayloadBytes = opts.PayloadBytes
	net, err := sim.NewMultiAPNetwork(cfg, dep, 1, opts.Devices, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	// The trajectory runs the §3.2.3 power rule on every query: each
	// device counter-steers its gain against its (faded) downlink.
	tcfg := sim.TrajectoryConfig{Seed: opts.Seed, NoSeries: true}
	if opts.Fading {
		tcfg.Correlation, tcfg.KFactorDB = 0.97, 10
	}
	traj, err := sim.NewTrajectory(net, tcfg)
	if err != nil {
		return nil, err
	}

	n := &Network{
		params:       params,
		payloadBytes: opts.PayloadBytes,
		dep:          dep,
		net:          net,
		traj:         traj,
		frames:       make([][]byte, opts.Devices),
		devices:      make([]*Device, opts.Devices),
	}
	for i, d := range dep.Devices {
		n.devices[i] = &Device{Index: i, SNRdB: d.UplinkSNRdB, Position: d.Pos, DownlinkRSSIdBm: d.DownlinkRSSIdBm}
	}
	n.refresh()
	return n, nil
}

// refresh copies each device's slot, shift and gain out of the engine,
// which may re-associate a device or move its gain on any round.
func (n *Network) refresh() {
	for i, dev := range n.devices {
		dev.Slot, dev.Shift, dev.GainDB = n.net.Assignment(i)
	}
}

// Devices returns the network's tags.
func (n *Network) Devices() []*Device { return n.devices }

// Params returns the network's physical-layer configuration.
func (n *Network) Params() Params { return n.params }

// Round is the outcome of one concurrent transmission round.
type Round struct {
	// Payloads maps device index to the correctly decoded payload
	// (CRC-checked). Devices that failed to decode are absent.
	Payloads map[int][]byte
	// Detected lists whether each transmitting device's preamble was
	// found. Devices the power rule sat out are absent.
	Detected map[int]bool
	// Duration is the round's on-air time in seconds (query + shared
	// preamble + payload).
	Duration float64
	// FFTs is the number of receiver FFT operations (constant in the
	// number of devices).
	FFTs int
}

// Run executes one concurrent round: every device with an entry in
// payloads transmits simultaneously, unless the power rule sits it out;
// the AP decodes them all from one received stream. Every payload must
// be Options.PayloadBytes long.
func (n *Network) Run(payloads map[int][]byte) (*Round, error) {
	if len(payloads) == 0 {
		return nil, fmt.Errorf("netscatter: no payloads")
	}
	for idx, pl := range payloads {
		if idx < 0 || idx >= len(n.devices) {
			return nil, fmt.Errorf("netscatter: device index %d out of range", idx)
		}
		if len(pl) != n.payloadBytes {
			return nil, fmt.Errorf("netscatter: device %d payload is %d bytes, want Options.PayloadBytes %d", idx, len(pl), n.payloadBytes)
		}
	}
	for idx, pl := range payloads {
		n.frames[idx] = pl
	}
	stats, err := n.traj.StepFrames(n.frames)
	clear(n.frames)
	if err != nil {
		return nil, err
	}

	round := &Round{
		Payloads: make(map[int][]byte, len(payloads)),
		Detected: make(map[int]bool, len(payloads)),
		Duration: stats.Combined.RoundSecs,
	}
	// Decodes alias engine arenas reused by the next Run: copy delivered
	// payloads into one allocation, each capped so appends stay its own.
	copies := make([]byte, 0, len(payloads)*n.payloadBytes)
	for idx := range payloads {
		dec, sent, ffts := n.traj.Outcome(idx)
		round.FFTs = ffts
		if !sent {
			continue
		}
		round.Detected[idx] = dec.Detected
		if dec.CRCOK {
			at := len(copies)
			copies = append(copies, dec.Payload...)
			round.Payloads[idx] = copies[at:len(copies):len(copies)]
		}
	}
	n.refresh()
	return round, nil
}

// AggregateThroughput returns the ideal aggregate network throughput in
// bits/s: Devices·BW/2^SF (§3.1: the whole bandwidth).
func (n *Network) AggregateThroughput() float64 {
	return float64(len(n.devices)) * n.params.DeviceBitRate()
}

// SNRSpread returns the deployment's max-min uplink SNR spread in dB.
func (n *Network) SNRSpread() float64 { return n.dep.SNRSpreadDB() }
