package core

// End-to-end golden requirement of the synth engine: frames synthesized
// through the phase recurrence (including the mixed fast path the
// simulator uses) must decode bit-exact — same detections, same bits,
// same payloads — as the paper's operating conditions demand.

import (
	"bytes"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// TestSynthFramesDecodeBitExact runs a deterministic multi-device round
// — fractional delays, oscillator offsets, a weak device, unit noise —
// through the mixed synthesis path and requires every frame to decode
// to exactly the transmitted bits.
func TestSynthFramesDecodeBitExact(t *testing.T) {
	p := chirp.Params{SF: 8, BW: 250e3, Oversample: 1}
	book, err := NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := dsp.NewRand(77)
	payloads := [][]byte{
		{0xDE, 0xAD, 0xBE},
		{0x01, 0x02, 0x03},
		{0xFF, 0x00, 0xAA},
		{0x42, 0x42, 0x42},
	}
	slots := []int{0, book.Slots() / 4, book.Slots() / 2, book.Slots() - 1}
	delays := []float64{0, 0.21, 0.44, 0.35}
	offsets := []float64{0, 180, -220, 90}
	snrs := []float64{14, 9, 7, 11}

	bitsLen := len(payloads[0])*8 + CRCBits
	var txs []air.Transmission
	shifts := make([]int, len(payloads))
	for i := range payloads {
		shifts[i] = book.ShiftOfSlot(slots[i])
		enc := NewEncoder(p, shifts[i])
		bits := FrameBits(payloads[i])
		txs = append(txs, air.Transmission{
			Mixed: func(dst []complex128, frac, freqHz float64, gain complex128) []complex128 {
				return enc.FrameBitsWaveformMixedInto(dst, bits, frac, freqHz, gain)
			},
			SNRdB:        snrs[i],
			DelaySec:     delays[i] / p.BW,
			FreqOffsetHz: offsets[i],
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
		if !dev.Detected {
			t.Fatalf("device %d not detected", i)
		}
		want := FrameBits(payloads[i])
		if !bytes.Equal(dev.Bits, want) {
			t.Errorf("device %d bits = %v, want %v (must be bit-exact)", i, dev.Bits, want)
		}
		if !dev.CRCOK || !bytes.Equal(dev.Payload, payloads[i]) {
			t.Errorf("device %d payload = %x CRCOK=%v, want %x", i, dev.Payload, dev.CRCOK, payloads[i])
		}
	}
}

// FuzzDecoderRoundTrip fuzzes the whole transmit-receive chain: a
// random payload on a random slot with random fractional timing, a
// small oscillator offset and an SNR above the paper's operating point
// must always decode to the transmitted bits. Failures reproduce
// deterministically from the fuzz input (the noise seed is part of it).
func FuzzDecoderRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(3), uint16(0), []byte{0xA5, 0x3C})
	f.Add(int64(9), uint16(60), uint16(0xFFFF), []byte{0x00})
	f.Add(int64(123), uint16(17), uint16(0x1234), []byte{0xFF, 0x01, 0x80})
	f.Add(int64(-5), uint16(40), uint16(777), []byte{0x55, 0xAA})
	f.Fuzz(func(t *testing.T, seed int64, slot uint16, knobs uint16, payload []byte) {
		if len(payload) == 0 || len(payload) > 4 {
			return
		}
		p := testParams // SF 7, 125 kHz
		book, err := NewCodeBook(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		shift := book.ShiftOfSlot(int(slot) % book.Slots())
		snr := 8 + float64(knobs%8)                        // [8, 15] dB: above operating point
		frac := float64((knobs>>3)%100) / 100 * 0.45       // [0, 0.45) bins of timing error
		dfBins := (float64((knobs>>10)%32)/32 - 0.5) * 0.4 // ±0.2 bins of CFO
		enc := NewEncoder(p, shift)
		bits := FrameBits(payload)
		tx := air.Transmission{
			Mixed: func(dst []complex128, fr, freqHz float64, gain complex128) []complex128 {
				return enc.FrameBitsWaveformMixedInto(dst, bits, fr, freqHz, gain)
			},
			SNRdB:        snr,
			DelaySec:     frac / p.BW,
			FreqOffsetHz: dfBins * p.BinHz(),
		}
		ch := air.NewChannel(p, dsp.NewRand(seed))
		sig := ch.Receive(ch.FrameLength(PreambleSymbols+len(bits), 2), []air.Transmission{tx})
		dec := NewDecoder(book, DefaultDecoderConfig(2))
		res, err := dec.DecodeFrame(sig, 0, []int{shift}, len(bits))
		if err != nil {
			t.Fatal(err)
		}
		dev := res.Devices[0]
		if !dev.Detected {
			t.Fatalf("undetected: slot=%d snr=%.1f frac=%.3f dfBins=%.3f seed=%d", slot, snr, frac, dfBins, seed)
		}
		if !bytes.Equal(dev.Bits, bits) {
			t.Fatalf("bit errors: got %v want %v (slot=%d snr=%.1f frac=%.3f dfBins=%.3f seed=%d)",
				dev.Bits, bits, slot, snr, frac, dfBins, seed)
		}
		if !dev.CRCOK || !bytes.Equal(dev.Payload, payload) {
			t.Fatalf("payload mismatch: got %x want %x", dev.Payload, payload)
		}
	})
}
