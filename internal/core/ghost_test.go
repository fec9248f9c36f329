package core

import (
	"fmt"
	"math"
	"testing"
)

// rejectGhostsOracle is the all-pairs ghost test Decoder.rejectGhosts
// replaced: for every detected candidate in index order, demote it when
// any other candidate still detected at that point carries the same
// bits and at least factor times its mean peak power. rejectGhosts must
// reproduce its outcome exactly, cascades and ties included.
func rejectGhostsOracle(devs []DeviceDecode, factor float64) {
	if factor <= 0 {
		return
	}
	for i := range devs {
		weak := &devs[i]
		if !weak.Detected || len(weak.Bits) == 0 {
			continue
		}
		for j := range devs {
			if i == j {
				continue
			}
			strong := &devs[j]
			if !strong.Detected || len(strong.Bits) != len(weak.Bits) {
				continue
			}
			if strong.MeanPeakPower < factor*weak.MeanPeakPower {
				continue
			}
			same := true
			for k := range weak.Bits {
				if weak.Bits[k] != strong.Bits[k] {
					same = false
					break
				}
			}
			if same {
				weak.Detected = false
				weak.CRCOK = false
				weak.Payload = nil
				break
			}
		}
	}
}

// ghostFactors are the GhostFactor values ghost rejection is pinned
// at: disabled, below 1 (every equal-bits pair qualifies both ways, so
// demotions cascade in index order), exactly 1 (ties qualify) and the
// default.
var ghostFactors = []float64{0, 0.5, 1, 15}

// checkRejectGhosts runs rejectGhosts and the oracle on copies of devs
// and reports the first candidate whose outcome differs.
func checkRejectGhosts(devs []DeviceDecode, factor float64) error {
	want := append([]DeviceDecode(nil), devs...)
	got := append([]DeviceDecode(nil), devs...)
	rejectGhostsOracle(want, factor)
	d := &Decoder{cfg: DecoderConfig{GhostFactor: factor}}
	d.rejectGhosts(got)
	for i := range want {
		w, g := want[i], got[i]
		if w.Detected != g.Detected || w.CRCOK != g.CRCOK || (w.Payload == nil) != (g.Payload == nil) {
			return fmt.Errorf("candidate %d: got detected=%v crc=%v payload=%v, oracle detected=%v crc=%v payload=%v",
				i, g.Detected, g.CRCOK, g.Payload != nil, w.Detected, w.CRCOK, w.Payload != nil)
		}
	}
	return nil
}

// ghostDev is a decoded candidate for the ghost tests.
func ghostDev(detected bool, power float64, bits ...byte) DeviceDecode {
	d := DeviceDecode{Detected: detected, MeanPeakPower: power, Bits: bits}
	if detected {
		d.CRCOK = true
		d.Payload = []byte{1}
	}
	return d
}

// TestRejectGhostsMatchesAllPairs pins the grouped ghost test to the
// all-pairs oracle on hand-built candidate sets: groups of three or
// more identical bit rows, equal powers, undetected members, rows that
// differ only in length, empty rows and interleaved groups.
func TestRejectGhostsMatchesAllPairs(t *testing.T) {
	cases := map[string][]DeviceDecode{
		"group of three": {
			ghostDev(true, 100, 1, 0, 1), ghostDev(true, 5, 1, 0, 1), ghostDev(true, 1, 1, 0, 1),
		},
		"strongest last": {
			ghostDev(true, 1, 1, 1), ghostDev(true, 3, 1, 1), ghostDev(true, 20, 1, 1), ghostDev(true, 400, 1, 1),
		},
		"equal powers": {
			ghostDev(true, 10, 0, 1), ghostDev(true, 10, 0, 1), ghostDev(true, 10, 0, 1), ghostDev(true, 10, 0, 1),
		},
		"undetected strong member": {
			ghostDev(false, 1e6, 1, 0), ghostDev(true, 2, 1, 0), ghostDev(true, 1, 1, 0),
		},
		"interleaved groups": {
			ghostDev(true, 1, 0, 0, 1), ghostDev(true, 50, 1, 1, 0), ghostDev(true, 100, 0, 0, 1),
			ghostDev(true, 1, 1, 1, 0), ghostDev(false, 900, 0, 0, 1), ghostDev(true, 7, 1, 1, 0),
		},
		"length differs": {
			ghostDev(true, 100, 1, 0), ghostDev(true, 1, 1, 0, 0), ghostDev(true, 1, 1),
		},
		"empty rows": {
			ghostDev(true, 100), ghostDev(true, 1), ghostDev(true, 1, 0),
		},
		"distinct rows": {
			ghostDev(true, 100, 1, 0), ghostDev(true, 1, 0, 1),
		},
		"zero power": {
			ghostDev(true, 0, 1), ghostDev(true, 0, 1), ghostDev(true, 3, 1),
		},
	}
	for name, devs := range cases {
		for _, f := range ghostFactors {
			if err := checkRejectGhosts(devs, f); err != nil {
				t.Errorf("%s, factor %g: %v", name, f, err)
			}
		}
	}
}

// FuzzRejectGhosts pins the grouped ghost test to the all-pairs oracle
// on arbitrary candidate sets. Each candidate takes two input bytes:
// detected flag, one of four bit rows (two of them equal but for
// length) and one of eight power levels, so equal rows, equal powers
// and exact factor multiples all occur.
func FuzzRejectGhosts(f *testing.F) {
	f.Add([]byte{0x01, 0x03, 0x01, 0x13, 0x01, 0x23}, uint8(3))
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x70}, uint8(1))
	f.Add([]byte{0x05, 0x71, 0x01, 0x11, 0x05, 0x21, 0x01, 0x01, 0x03, 0x42}, uint8(2))
	f.Add([]byte{0x01, 0x10, 0x03, 0x60, 0x01, 0x30, 0x07, 0x50, 0x01, 0x00}, uint8(0))
	rows := [][]byte{{1, 0, 1, 1}, {0, 1, 1, 0}, {1, 0, 1}, {1, 0, 1, 1}}
	powers := []float64{0, 1, 1, 2, 15, 30, 225, math.Inf(1)}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		var devs []DeviceDecode
		for k := 0; k+1 < len(data) && len(devs) < 64; k += 2 {
			row := rows[int(data[k]>>1)%len(rows)]
			devs = append(devs, ghostDev(data[k]&1 == 1, powers[int(data[k+1]>>4)%len(powers)], row...))
		}
		factor := ghostFactors[int(sel)%len(ghostFactors)]
		if err := checkRejectGhosts(devs, factor); err != nil {
			t.Fatalf("factor %g: %v", factor, err)
		}
	})
}
