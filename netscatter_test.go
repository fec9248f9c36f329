package netscatter

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"netscatter/internal/deploy"
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
	net, err := NewNetwork(DefaultParams(), Options{Devices: 24, Seed: 1, PayloadBytes: 4})
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
	net, err := NewNetwork(DefaultParams(), Options{Devices: 16, Seed: 2, PayloadBytes: 2})
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
	if _, err := net.Run(map[int][]byte{0: nil}); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := net.Run(map[int][]byte{0: {1, 2, 3, 4}, 1: {1, 2, 3, 4, 5}}); err == nil {
		t.Error("payload shorter than Options.PayloadBytes accepted")
	}
	if _, err := net.Run(map[int][]byte{0: {1, 2, 3, 4, 5, 6}}); err == nil {
		t.Error("payload longer than Options.PayloadBytes accepted")
	}
	if _, err := NewNetwork(DefaultParams(), Options{Devices: 4, PayloadBytes: -1}); err == nil {
		t.Error("negative PayloadBytes accepted")
	}
}

// runPayloads is round r's traffic for an n-device network: every
// device whose index is a multiple of every sends size bytes.
func runPayloads(n, size, every, r int) map[int][]byte {
	payloads := make(map[int][]byte, n)
	for i := 0; i < n; i += every {
		pl := make([]byte, size)
		for j := range pl {
			pl[j] = byte(r*31 + i*7 + j)
		}
		payloads[i] = pl
	}
	return payloads
}

// TestNetworkRunAcrossGOMAXPROCS: the facade steps the pooled round
// engine, so the same network and payloads must give identical Rounds
// and device states at any GOMAXPROCS, with and without fading. Under
// fading the power rule moves some device's gain, and Devices() shows
// it; on static channels no gain moves.
func TestNetworkRunAcrossGOMAXPROCS(t *testing.T) {
	const devices, rounds = 32, 4
	type out struct {
		rounds  []Round
		devices [][]Device // before the first round, then after each
	}
	snapshot := func(net *Network) []Device {
		var devs []Device
		for _, d := range net.Devices() {
			devs = append(devs, *d)
		}
		return devs
	}
	run := func(procs int, fading bool) out {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		net, err := NewNetwork(DefaultParams(), Options{Devices: devices, Seed: 9, Fading: fading})
		if err != nil {
			t.Fatal(err)
		}
		o := out{devices: [][]Device{snapshot(net)}}
		for r := 0; r < rounds; r++ {
			round, err := net.Run(runPayloads(devices, 5, 1+r%2, r))
			if err != nil {
				t.Fatal(err)
			}
			o.rounds = append(o.rounds, *round)
			o.devices = append(o.devices, snapshot(net))
		}
		return o
	}
	for _, fading := range []bool{false, true} {
		want := run(1, fading)
		moved := false
		for _, devs := range want.devices[1:] {
			for i, d := range devs {
				moved = moved || d.GainDB != want.devices[0][i].GainDB
			}
		}
		if moved != fading {
			t.Fatalf("fading=%v: device gains moved=%v", fading, moved)
		}
		for _, procs := range []int{2, 4} {
			got := run(procs, fading)
			if !reflect.DeepEqual(got.rounds, want.rounds) {
				t.Fatalf("fading=%v GOMAXPROCS=%d: rounds diverge", fading, procs)
			}
			if !reflect.DeepEqual(got.devices, want.devices) {
				t.Fatalf("fading=%v GOMAXPROCS=%d: device states diverge", fading, procs)
			}
		}
	}
}

// TestNetworkOfficeAP: a custom floor plan's AP point is where the
// engine's one AP sits, so each device's engine link is the one its
// Device fields describe.
func TestNetworkOfficeAP(t *testing.T) {
	plan := deploy.DefaultOffice
	plan.AP = deploy.Point{X: 8, Y: 6}
	net, err := NewNetwork(DefaultParams(), Options{Devices: 16, Seed: 4, Office: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(net.dep.APs) != 1 || net.dep.APs[0] != plan.AP {
		t.Fatalf("engine APs at %v, want the plan's %v", net.dep.APs, plan.AP)
	}
	for i, dev := range net.Devices() {
		link := net.dep.Devices[i].APLinks[0]
		if link.UplinkSNRdB != dev.SNRdB || link.DownlinkRSSIdBm != dev.DownlinkRSSIdBm {
			t.Fatalf("device %d: engine link %+v, device %+v", i, link, *dev)
		}
	}
	round, err := net.Run(runPayloads(16, 5, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// An off-centre AP widens the near-far spread; the round must still
	// run and deliver most frames.
	if len(round.Payloads) < 8 {
		t.Fatalf("only %d/16 payloads decoded", len(round.Payloads))
	}
}

// TestNetworkRunAllocs gates the facade round's allocations: with both
// maps pre-sized, a 64-device Run allocates the Round, the maps' tables
// and the delivered payloads' copies — at most len(Payloads)+8 objects
// — and nothing per device in the engine.
func TestNetworkRunAllocs(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const devices = 64
	net, err := NewNetwork(DefaultParams(), Options{Devices: devices, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	payloads := runPayloads(devices, 5, 1, 0)
	for range 2 {
		if _, err := net.Run(payloads); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 5; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round, err := net.Run(payloads)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs := after.Mallocs - before.Mallocs
		t.Logf("round %d: %d allocations, %d payloads delivered", r, allocs, len(round.Payloads))
		if bound := uint64(len(round.Payloads) + 8); allocs > bound {
			t.Fatalf("round %d: Run made %d allocations, want at most %d", r, allocs, bound)
		}
	}
}

func TestNetworkDeterministic(t *testing.T) {
	run := func() map[int][]byte {
		net, err := NewNetwork(DefaultParams(), Options{Devices: 8, Seed: 77, PayloadBytes: 1})
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
	net, err := NewNetwork(DefaultParams(), Options{Devices: 4, Seed: 5, PayloadBytes: 3})
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
	net, err := NewNetwork(DefaultParams(), Options{Devices: 16, Seed: 8, PayloadBytes: 2, Fading: true})
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
