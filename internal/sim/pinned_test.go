package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
)

// pinnedNetwork builds a world the way nsbench's world.go and the
// service build a tenant: geometry from seed 1 on the default office,
// APs placed on it, the network from seed 2 at SF 9, 500 kHz, SKIP 2
// (widened by the constructor to fit the fleet) and 5-byte payloads.
func pinnedNetwork(t *testing.T, devices, aps int, soft bool) *MultiAPNetwork {
	t.Helper()
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, devices, 500e3, dsp.NewRand(1))
	dep.PlaceAPs(aps)
	cfg := DefaultConfig()
	cfg.Params = chirp.Params{SF: 9, BW: 500e3, Oversample: 1}
	cfg.Skip = 2
	cfg.PayloadBytes = 5
	net, err := NewMultiAPNetwork(cfg, dep, aps, devices, 2)
	if err != nil {
		t.Fatal(err)
	}
	net.SetSoftCombining(soft)
	return net
}

// hashDecode folds every device of one decode into h: detection, CRC,
// the demodulated bits and the exact bits of the two float outputs.
func hashDecode(h hash.Hash64, res *core.FrameDecode) {
	var buf [8]byte
	flag := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for i := range res.Devices {
		d := &res.Devices[i]
		flag(d.Detected)
		flag(d.CRCOK)
		h.Write(d.Bits)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.MeanPeakPower))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.ObservedBin))
		h.Write(buf[:])
	}
}

// TestDecodePinned pins decode quality and decode bits on two small
// canonical round sets: 8 rounds of 64 devices at one AP (a sparse
// SKIP-8 window plan) and 4 rounds of 16 devices at 4 APs with soft
// combining (SKIP 32). It pins the exact Snapshot totals and an FNV-1a
// hash over every per-AP and soft decode's per-device outputs, so a
// change that keeps speed but moves a single decoded bit, detection or
// peak power fails here. A speed-only change must leave the constants
// exact; do not rebaseline them to absorb one.
func TestDecodePinned(t *testing.T) {
	cases := []struct {
		name                 string
		devices, aps, rounds int
		soft                 bool

		detected, framesOK, bitErrors, softFramesOK int64
		hash                                        uint64
	}{
		{name: "64x1", devices: 64, aps: 1, rounds: 8,
			detected: 512, framesOK: 498, bitErrors: 54, hash: 0xc98fab7b7f9e7123},
		{name: "16x4-soft", devices: 16, aps: 4, rounds: 4, soft: true,
			detected: 64, framesOK: 64, softFramesOK: 64, hash: 0x3d3178259fd4f709},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := pinnedNetwork(t, c.devices, c.aps, c.soft)
			var acc Accumulator
			h := fnv.New64a()
			for r := 0; r < c.rounds; r++ {
				st, err := net.RunRound(c.devices)
				if err != nil {
					t.Fatal(err)
				}
				acc.AddMulti(st, net.SoftCombining())
				for _, res := range net.rc.res {
					hashDecode(h, res)
				}
				if c.soft {
					hashDecode(h, net.rc.softRes)
				}
			}
			s := acc.Snapshot()
			t.Logf("detected %d, frames OK %d, bit errors %d, soft frames OK %d, hash %#x",
				s.Detected, s.FramesOK, s.BitErrors, s.SoftFramesOK, h.Sum64())
			if s.Detected != c.detected || s.FramesOK != c.framesOK || s.BitErrors != c.bitErrors || s.SoftFramesOK != c.softFramesOK {
				t.Errorf("totals: detected %d, frames OK %d, bit errors %d, soft frames OK %d; want %d, %d, %d, %d",
					s.Detected, s.FramesOK, s.BitErrors, s.SoftFramesOK, c.detected, c.framesOK, c.bitErrors, c.softFramesOK)
			}
			if got := h.Sum64(); got != c.hash {
				t.Errorf("decode hash %#x, want %#x", got, c.hash)
			}
		})
	}
}
