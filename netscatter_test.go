package netscatter

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.MaxDevices() != 256 {
		t.Fatalf("MaxDevices = %d, want 256 (the paper's deployment)", p.MaxDevices())
	}
	if r := p.DeviceBitRate(); r < 976 || r > 977 {
		t.Fatalf("device bitrate = %v, want ~976 bps", r)
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	net, err := NewNetwork(DefaultParams(), Options{Devices: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[int][]byte{}
	for i := 0; i < 24; i++ {
		payloads[i] = []byte{byte(i), 0xBE, 0xEF, byte(255 - i)}
	}
	round, err := net.Run(payloads)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i, want := range payloads {
		if got, found := round.Payloads[i]; found && bytes.Equal(got, want) {
			ok++
		}
	}
	if ok < 22 {
		t.Fatalf("only %d/24 payloads decoded", ok)
	}
	if round.Duration <= 0 || round.FFTs <= 0 {
		t.Fatalf("round accounting: %+v", round)
	}
}

func TestNetworkPartialRound(t *testing.T) {
	net, err := NewNetwork(DefaultParams(), Options{Devices: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Only a subset transmits this round.
	payloads := map[int][]byte{3: {1, 2}, 7: {3, 4}, 12: {5, 6}}
	round, err := net.Run(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range payloads {
		if !bytes.Equal(round.Payloads[idx], payloads[idx]) {
			t.Fatalf("device %d payload mismatch", idx)
		}
	}
	if len(round.Detected) != 3 {
		t.Fatalf("detected map = %v", round.Detected)
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(DefaultParams(), Options{Devices: 0}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := NewNetwork(DefaultParams(), Options{Devices: 1000}); err == nil {
		t.Error("over-capacity accepted")
	}
	if _, err := NewNetwork(Params{SF: 99, BandwidthHz: 1, Skip: 2}, Options{Devices: 4}); err == nil {
		t.Error("invalid params accepted")
	}
	for _, skip := range []int{0, -1} {
		p := Params{SF: 9, BandwidthHz: 500e3, Skip: skip, Oversample: 1}
		if got := p.MaxDevices(); got != 0 {
			t.Errorf("Skip %d: MaxDevices = %d, want 0", skip, got)
		}
		_, err := NewNetwork(p, Options{Devices: 4})
		if err == nil || !strings.Contains(err.Error(), "Skip") {
			t.Errorf("Skip %d: error %v does not reject the spacing", skip, err)
		}
	}
	net, err := NewNetwork(DefaultParams(), Options{Devices: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil); err == nil {
		t.Error("empty round accepted")
	}
	if _, err := net.Run(map[int][]byte{9: {1}}); err == nil {
		t.Error("out-of-range device accepted")
	}
	if _, err := net.Run(map[int][]byte{0: {1}, 1: {1, 2}}); err == nil {
		t.Error("mismatched payload sizes accepted")
	}
}

func TestNetworkDeterministic(t *testing.T) {
	run := func() map[int][]byte {
		net, err := NewNetwork(DefaultParams(), Options{Devices: 8, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		payloads := map[int][]byte{}
		for i := 0; i < 8; i++ {
			payloads[i] = []byte{byte(i * 11)}
		}
		round, err := net.Run(payloads)
		if err != nil {
			t.Fatal(err)
		}
		return round.Payloads
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic decode count: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			t.Fatalf("non-deterministic payload for %d", k)
		}
	}
}

func TestNetworkQuickPayloads(t *testing.T) {
	net, err := NewNetwork(DefaultParams(), Options{Devices: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b [3]byte) bool {
		round, err := net.Run(map[int][]byte{0: a[:], 2: b[:]})
		if err != nil {
			return false
		}
		return bytes.Equal(round.Payloads[0], a[:]) && bytes.Equal(round.Payloads[2], b[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateThroughputScalesWithBandwidth(t *testing.T) {
	// §3.1: aggregate network throughput equals the chirp bandwidth
	// when fully loaded.
	p := DefaultParams()
	net, err := NewNetwork(p, Options{Devices: 256, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := net.AggregateThroughput()
	want := p.BandwidthHz / 2 // 256 of 512 shifts at SKIP 2
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("aggregate throughput %v, want ~%v", got, want)
	}
}

func TestFadingNetworkStillDecodes(t *testing.T) {
	net, err := NewNetwork(DefaultParams(), Options{Devices: 16, Seed: 8, Fading: true})
	if err != nil {
		t.Fatal(err)
	}
	okTotal, txTotal := 0, 0
	for r := 0; r < 3; r++ {
		payloads := map[int][]byte{}
		for i := 0; i < 16; i++ {
			payloads[i] = []byte{byte(r), byte(i)}
		}
		round, err := net.Run(payloads)
		if err != nil {
			t.Fatal(err)
		}
		okTotal += len(round.Payloads)
		txTotal += 16
	}
	if okTotal < txTotal*3/4 {
		t.Fatalf("only %d/%d under fading", okTotal, txTotal)
	}
}
