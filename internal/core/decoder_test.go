package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

var testParams = chirp.Params{SF: 7, BW: 125e3, Oversample: 1}

func TestTestParamsValid(t *testing.T) {
	if err := testParams.Validate(); err != nil {
		t.Fatal(err)
	}
	if testParams.N() != 128 {
		t.Fatalf("N = %d, want 128", testParams.N())
	}
	if got := testParams.OOKBitRate(); math.Abs(got-976.5625) > 0.01 {
		t.Fatalf("OOK bitrate = %v", got)
	}
}

// deviceTx builds a Transmission with exact fractional-delay synthesis.
func deviceTx(enc *Encoder, payload []byte, snrDB, delaySec, dfHz float64) air.Transmission {
	return air.Transmission{
		Waveform: enc.FrameWaveform(payload),
		Delayed: func(frac float64) []complex128 {
			return enc.FrameWaveformDelayed(payload, frac)
		},
		SNRdB:        snrDB,
		DelaySec:     delaySec,
		FreqOffsetHz: dfHz,
	}
}

func frameStream(t *testing.T, p chirp.Params, skip int, txs []air.Transmission, payloadBits, seed int64) ([]complex128, *Decoder) {
	t.Helper()
	book, err := NewCodeBook(p, int(skip))
	if err != nil {
		t.Fatal(err)
	}
	ch := air.NewChannel(p, dsp.NewRand(seed))
	length := ch.FrameLength(PreambleSymbols+int(payloadBits), 2)
	sig := ch.Receive(length, txs)
	return sig, NewDecoder(book, DefaultDecoderConfig(int(skip)))
}

func TestDecodeSingleDeviceClean(t *testing.T) {
	p := testParams
	payload := []byte{0xA5, 0x3C, 0x00, 0xFF}
	enc := NewEncoder(p, 4)
	bits := FrameBits(payload)
	tx := air.Transmission{Waveform: enc.FrameWaveform(payload), SNRdB: 10}
	sig, dec := frameStream(t, p, 2, []air.Transmission{tx}, int64(len(bits)), 1)

	res, err := dec.DecodeFrame(sig, 0, []int{4}, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	dev := res.Devices[0]
	if !dev.Detected {
		t.Fatal("device not detected")
	}
	if !dev.CRCOK {
		t.Fatalf("CRC failed; bits=%v", dev.Bits)
	}
	if !bytes.Equal(dev.Payload, payload) {
		t.Fatalf("payload = %x, want %x", dev.Payload, payload)
	}
}

func TestDecodeAbsentDeviceNotDetected(t *testing.T) {
	p := testParams
	payload := []byte{0x11, 0x22}
	enc := NewEncoder(p, 8)
	bits := FrameBits(payload)
	tx := air.Transmission{Waveform: enc.FrameWaveform(payload), SNRdB: 5}
	sig, dec := frameStream(t, p, 2, []air.Transmission{tx}, int64(len(bits)), 2)

	// Candidate shifts: the real device plus two silent ones.
	res, err := dec.DecodeFrame(sig, 0, []int{8, 40, 80}, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Devices[0].Detected {
		t.Error("active device missed")
	}
	if res.Devices[1].Detected || res.Devices[2].Detected {
		t.Errorf("silent shifts detected: %+v %+v", res.Devices[1].Detected, res.Devices[2].Detected)
	}
}

func TestDecodeManyConcurrentDevices(t *testing.T) {
	p := testParams // SF7: 128 bins, SKIP 2 -> 64 slots
	skip := 2
	book, err := NewCodeBook(p, skip)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(42)
	nDev := 48
	payloadBytes := 3
	bitsLen := payloadBytes*8 + CRCBits

	var txs []air.Transmission
	shifts := make([]int, nDev)
	payloads := make([][]byte, nDev)
	for i := 0; i < nDev; i++ {
		shifts[i] = book.ShiftOfSlot(i)
		payloads[i] = rng.Bytes(payloadBytes)
		enc := NewEncoder(p, shifts[i])
		txs = append(txs, air.Transmission{
			Waveform: enc.FrameWaveform(payloads[i]),
			SNRdB:    rng.Uniform(3, 9),
		})
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2), txs)

	dec := NewDecoder(book, DefaultDecoderConfig(skip))
	res, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for i, dev := range res.Devices {
		if dev.Detected && dev.CRCOK && bytes.Equal(dev.Payload, payloads[i]) {
			okCount++
		}
	}
	if okCount < nDev-1 {
		t.Fatalf("only %d/%d devices decoded correctly", okCount, nDev)
	}
}

func TestDecodeWithTimingAndFrequencyOffsets(t *testing.T) {
	// Offsets within the SKIP=2 tolerance (< 1 bin total) must decode.
	p := testParams
	skip := 2
	book, err := NewCodeBook(p, skip)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(7)
	nDev := 24
	payloadBytes := 3
	bitsLen := payloadBytes*8 + CRCBits

	var txs []air.Transmission
	shifts := make([]int, nDev)
	payloads := make([][]byte, nDev)
	for i := 0; i < nDev; i++ {
		shifts[i] = book.ShiftOfSlot(i)
		payloads[i] = rng.Bytes(payloadBytes)
		enc := NewEncoder(p, shifts[i])
		// Up to ±0.35 bin of timing and ±0.1 bin of frequency offset.
		dtBins := rng.Uniform(0, 0.35)
		dfBins := rng.Uniform(-0.1, 0.1)
		txs = append(txs, deviceTx(enc, payloads[i],
			rng.Uniform(4, 10), dtBins/p.BW, dfBins*p.BinHz()))
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2), txs)

	dec := NewDecoder(book, DefaultDecoderConfig(skip))
	res, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for i, dev := range res.Devices {
		if dev.Detected && dev.CRCOK && bytes.Equal(dev.Payload, payloads[i]) {
			okCount++
		}
	}
	if okCount < nDev-2 {
		t.Fatalf("only %d/%d devices decoded correctly under offsets", okCount, nDev)
	}
}

func TestDecodeBelowNoiseFloor(t *testing.T) {
	// A single device at -10 dB SNR (below the noise floor) must decode
	// thanks to the 2^SF processing gain (~24 dB at SF 8, leaving a
	// comfortable ~14 dB post-FFT SNR; Fig. 12 of the paper shows the
	// OOK waterfall lives around 12-14 dB post-FFT).
	p := chirp.Params{SF: 8, BW: 250e3, Oversample: 1}
	payload := []byte{0x5A, 0xC3}
	enc := NewEncoder(p, 6)
	bits := FrameBits(payload)
	tx := air.Transmission{Waveform: enc.FrameWaveform(payload), SNRdB: -10}
	sig, dec := frameStream(t, p, 2, []air.Transmission{tx}, int64(len(bits)), 99)

	res, err := dec.DecodeFrame(sig, 0, []int{6}, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	dev := res.Devices[0]
	if !dev.Detected || !dev.CRCOK || !bytes.Equal(dev.Payload, payload) {
		t.Fatalf("below-noise decode failed: detected=%v crc=%v payload=%x",
			dev.Detected, dev.CRCOK, dev.Payload)
	}
}

func TestDecoderFFTCountIndependentOfDevices(t *testing.T) {
	// The receiver-complexity claim (§3.1): FFT work per frame does not
	// grow with the number of candidate devices.
	p := testParams
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3}
	bitsLen := len(payload)*8 + CRCBits
	enc := NewEncoder(p, 0)
	ch := air.NewChannel(p, dsp.NewRand(3))
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2),
		[]air.Transmission{{Waveform: enc.FrameWaveform(payload), SNRdB: 8}})

	dec := NewDecoder(book, DefaultDecoderConfig(2))
	res1, err := dec.DecodeFrame(sig, 0, []int{0}, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	// DecodeFrame results alias decoder-owned arenas, so capture the
	// count before the next decode overwrites it.
	ffts1 := res1.FFTs
	res64, err := dec.DecodeFrame(sig, 0, book.AllShifts(), bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	if ffts1 != res64.FFTs {
		t.Fatalf("FFT count grew with candidates: %d vs %d", ffts1, res64.FFTs)
	}
}

func TestDecodeQuickPayloadRoundTrip(t *testing.T) {
	p := chirp.Params{SF: 6, BW: 125e3, Oversample: 1}
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	rng := dsp.NewRand(11)
	f := func(payload [3]byte, slotRaw uint8) bool {
		slot := int(slotRaw) % book.Slots()
		shift := book.ShiftOfSlot(slot)
		enc := NewEncoder(p, shift)
		bits := FrameBits(payload[:])
		ch := air.NewChannel(p, rng)
		sig := ch.Receive(ch.FrameLength(PreambleSymbols+len(bits), 2),
			[]air.Transmission{{Waveform: enc.FrameWaveform(payload[:]), SNRdB: 12}})
		res, err := dec.DecodeFrame(sig, 0, []int{shift}, len(bits))
		if err != nil {
			return false
		}
		dev := res.Devices[0]
		return dev.Detected && dev.CRCOK && bytes.Equal(dev.Payload, payload[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFrameBoundsError(t *testing.T) {
	p := testParams
	book, _ := NewCodeBook(p, 2)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	if _, err := dec.DecodeFrame(make([]complex128, 10), 0, []int{0}, 8); err == nil {
		t.Error("out-of-bounds frame accepted")
	}
	if _, err := dec.DecodeFrame(make([]complex128, 10000), -1, []int{0}, 8); err == nil {
		t.Error("negative start accepted")
	}
}

func TestAggregateBandwidthDecode(t *testing.T) {
	// §3.1 bandwidth aggregation: Oversample=2 doubles the shift space
	// (one FFT over the aggregate band). Devices in both halves of the
	// extended shift range must decode concurrently.
	p := chirp.Params{SF: 6, BW: 125e3, Oversample: 2}
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if book.Slots() != 64 { // 2·2^6 / 2
		t.Fatalf("aggregate slots = %d, want 64", book.Slots())
	}
	rng := dsp.NewRand(5)
	payloadBytes := 2
	bitsLen := payloadBytes*8 + CRCBits
	nDev := 16
	var txs []air.Transmission
	shifts := make([]int, nDev)
	payloads := make([][]byte, nDev)
	for i := 0; i < nDev; i++ {
		// Spread across the whole extended range, including shifts
		// beyond 2^SF (the second band).
		shifts[i] = book.ShiftOfSlot(i * (book.Slots() / nDev))
		payloads[i] = rng.Bytes(payloadBytes)
		enc := NewEncoder(p, shifts[i])
		txs = append(txs, air.Transmission{
			Waveform: enc.FrameWaveform(payloads[i]),
			SNRdB:    8,
		})
	}
	ch := air.NewChannel(p, rng)
	sig := ch.Receive(ch.FrameLength(PreambleSymbols+bitsLen, 2), txs)
	dec := NewDecoder(book, DefaultDecoderConfig(2))
	res, err := dec.DecodeFrame(sig, 0, shifts, bitsLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, dev := range res.Devices {
		if !dev.Detected || !dev.CRCOK || !bytes.Equal(dev.Payload, payloads[i]) {
			t.Fatalf("aggregate device %d (shift %d) failed: detected=%v crc=%v",
				i, shifts[i], dev.Detected, dev.CRCOK)
		}
	}
}

func TestObservedBinTracksOffset(t *testing.T) {
	// The preamble estimate of a device's actual bin should reflect an
	// injected timing offset (peak moves by -Δt·BW bins).
	p := testParams
	payload := []byte{0xF0}
	enc := NewEncoder(p, 20)
	bits := FrameBits(payload)
	dtBins := 0.4
	tx := deviceTx(enc, payload, 15, dtBins/p.BW, 0)
	sig, dec := frameStream(t, p, 2, []air.Transmission{tx}, int64(len(bits)), 8)
	res, err := dec.DecodeFrame(sig, 0, []int{20}, len(bits))
	if err != nil {
		t.Fatal(err)
	}
	dev := res.Devices[0]
	if !dev.Detected {
		t.Fatal("not detected")
	}
	// A delay of Δt moves the dechirped tone to c - Δt·BW bins, but the
	// apparent spectral maximum is biased back toward the integer bin:
	// the cyclic-shift wrap splits the symbol into two segments whose
	// sincs interfere. Assert direction and a plausible magnitude rather
	// than the exact tone location.
	got := dev.ObservedBin - 20
	if got > -0.05 || got < -dtBins-0.1 {
		t.Fatalf("observed bin offset %.3f, want in [%.2f, -0.05]", got, -dtBins-0.1)
	}
}
