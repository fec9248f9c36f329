package sim

import (
	"fmt"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/hw"
)

// Config parameterizes the sample-level NetScatter network simulation.
type Config struct {
	// Params is the chirp configuration (the paper deploys 500 kHz,
	// SF 9).
	Params chirp.Params
	// Skip is the cyclic-shift spacing (2 in the deployment).
	Skip int
	// PayloadBytes per device per round (5 in §4.4).
	PayloadBytes int
	// Decoder tunes the receiver; zero value means
	// core.DefaultDecoderConfig(Skip).
	Decoder *core.DecoderConfig
	// Timing is the on-air accounting.
	Timing Timing
	// Query selects Config1/Config2 overheads.
	Query QueryConfig
	// DisablePowerControl turns off the device-side power adaptation
	// (for the ablation bench).
	DisablePowerControl bool
	// PowerAwareAllocation selects the §3.2.3 allocation; when false
	// slots are assigned in arrival order (ablation).
	PowerAwareAllocation bool
	// Fading applies a per-round Ricean fading draw per device.
	Fading bool
	// DelayModel draws per-packet hardware delays.
	DelayModel hw.DelayModel
}

// DefaultConfig returns the deployment configuration of §4.4.
func DefaultConfig() Config {
	return Config{
		Params:               chirp.Default500k9,
		Skip:                 2,
		PayloadBytes:         5,
		Timing:               DefaultTiming(),
		Query:                Config1,
		PowerAwareAllocation: true,
		DelayModel:           hw.DefaultDelayModel,
	}
}

// RoundStats aggregates one concurrent round.
type RoundStats struct {
	Devices       int // devices scheduled to transmit
	Detected      int // devices whose preamble was found
	FramesOK      int // devices with matching CRC and payload
	BitErrors     int // payload bit errors across detected devices
	TotalBits     int // payload bits transmitted by detected devices
	ScheduledBits int // payload bits transmitted by all devices
	RoundSecs     float64
	PayloadSec    float64
}

// PER returns the packet error rate: the fraction of scheduled devices
// whose frame did not arrive CRC-valid.
func (r RoundStats) PER() float64 {
	if r.Devices == 0 {
		return 0
	}
	return 1 - float64(r.FramesOK)/float64(r.Devices)
}

// BER returns the payload bit error rate over detected devices.
func (r RoundStats) BER() float64 {
	if r.TotalBits == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.TotalBits)
}

// GoodBits returns the correctly received payload bits across all
// scheduled devices (bits of undetected devices count as lost).
func (r RoundStats) GoodBits() int {
	return r.TotalBits - r.BitErrors
}

// GoodFraction is GoodBits over everything scheduled.
func (r RoundStats) GoodFraction() float64 {
	if r.ScheduledBits == 0 {
		return 0
	}
	return float64(r.GoodBits()) / float64(r.ScheduledBits)
}

// buildCodeBook selects the effective cyclic-shift spacing for a
// network of maxDevices and builds its code book. Devices are spread
// over the whole spectrum when slots outnumber them: with 128 of 256
// devices the effective spacing is SKIP=4, matching the paper's
// observation that under 128 devices "the devices are separated by
// more than 2 cyclic shifts" (§4.4).
func buildCodeBook(cfg Config, maxDevices int) (*core.CodeBook, error) {
	skip := cfg.Skip
	if maxDevices > 0 {
		if s := cfg.Params.N() / maxDevices; s > skip {
			skip = s
		}
	}
	if max := cfg.Params.N() / 2; skip > max {
		skip = max
	}
	book, err := core.NewCodeBook(cfg.Params, skip)
	if err != nil {
		return nil, err
	}
	if maxDevices > book.Slots() {
		return nil, fmt.Errorf("sim: %d devices exceed %d slots", maxDevices, book.Slots())
	}
	return book, nil
}

// resolveDecoderConfig applies the simulator's decoder defaults: a
// guard window matched to the residual-offset regime and the
// normalized noise floor the AP would calibrate on quiet intervals
// (exactly N per padded bin — unit noise over an N-sample window).
func resolveDecoderConfig(cfg Config, skip int) core.DecoderConfig {
	dcfg := core.DefaultDecoderConfig(skip)
	if dcfg.GuardBins > 2 {
		// Residual offsets never exceed ~2 bins (Fig. 14b); a wider
		// search window would only admit neighbours.
		dcfg.GuardBins = 2
	}
	if cfg.Decoder != nil {
		dcfg = *cfg.Decoder
	}
	if dcfg.NoiseFloor == 0 {
		dcfg.NoiseFloor = float64(cfg.Params.N())
	}
	return dcfg
}

// tallyDevice folds one device's decode outcome into stats: detection,
// payload bit errors against the transmitted bits, and frame validity
// against the transmitted payload.
func tallyDevice(stats *RoundStats, dev *core.DeviceDecode, wantBits []byte, wantPayload []byte, payloadBits int) {
	if !dev.Detected {
		return
	}
	stats.Detected++
	stats.TotalBits += payloadBits
	for j := range wantBits {
		if dev.Bits[j] != wantBits[j] {
			stats.BitErrors++
		}
	}
	if dev.CRCOK && equalBytes(dev.Payload, wantPayload) {
		stats.FramesOK++
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
