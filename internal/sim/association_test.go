package sim

import (
	"bytes"
	"testing"

	"netscatter/internal/air"
	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/mac"
	"netscatter/internal/radio"
)

// TestAssociationOverTheAir runs the full Fig. 10 sequence through the
// physical layer: a new device's association request is an actual chirp
// frame on a reserved association shift, decoded by the AP's concurrent
// decoder alongside an existing device's data, and the ACK arrives on
// the newly assigned shift — all from superposed sample streams.
func TestAssociationOverTheAir(t *testing.T) {
	p := chirp.Default500k9
	book, err := core.NewCodeBook(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ap := mac.NewAP(book)
	dec := core.NewDecoder(book, core.DefaultDecoderConfig(2))
	rng := dsp.NewRand(45)

	// Device 1 is already associated (protocol shortcut; its frames
	// below are real).
	dev1 := mac.NewDevice(book)
	act := dev1.OnQuery(ap.NextQuery(), -30)
	if !act.AssocRequest {
		t.Fatal("dev1 should request association")
	}
	if _, err := ap.OnAssociationRequest(12); err != nil {
		t.Fatal(err)
	}
	act = dev1.OnQuery(ap.NextQuery(), -30)
	if !act.AssocAck {
		t.Fatal("dev1 should ACK")
	}
	ap.OnAssociationAck(dev1.NetworkID())

	dev2 := mac.NewDevice(book)
	const dev2RSSI = -42.0 // weakish downlink
	payload1 := []byte{0x10, 0x20, 0x30}
	assocPayload := []byte{0xD2, 0x00, 0x01} // device hardware ID
	bits := len(payload1)*8 + core.CRCBits

	// --- Round 1: dev1 sends data, dev2 sends an association request,
	// both concurrently over the air.
	q := ap.NextQuery()
	a1 := dev1.OnQuery(q, -30)
	a2 := dev2.OnQuery(q, dev2RSSI)
	if !a2.AssocRequest {
		t.Fatal("dev2 should request association")
	}
	rx := receiveFrames(p, rng, []frameTx{
		{shift: a1.Shift, payload: payload1, snr: 12 + a1.GainDB},
		{shift: a2.Shift, payload: assocPayload, snr: -4 + a2.GainDB},
	}, bits)

	// dev1's shift and both association shifts.
	hi, lo := book.AssociationSlots()
	shifts := []int{a1.Shift, book.ShiftOfSlot(hi), book.ShiftOfSlot(lo)}
	res, err := dec.DecodeFrame(rx, 0, shifts, bits)
	if err != nil {
		t.Fatal(err)
	}
	// dev1's data decodes.
	if !res.Devices[0].CRCOK || !bytes.Equal(res.Devices[0].Payload, payload1) {
		t.Fatalf("dev1 data lost: %+v", res.Devices[0])
	}
	// The association request appears on exactly one assoc shift.
	var reqDecode *core.DeviceDecode
	for i := 1; i < len(res.Devices); i++ {
		if res.Devices[i].Detected {
			if reqDecode != nil {
				t.Fatal("request detected on both association shifts")
			}
			reqDecode = &res.Devices[i]
		}
	}
	if reqDecode == nil || !reqDecode.CRCOK || !bytes.Equal(reqDecode.Payload, assocPayload) {
		t.Fatalf("association request not decoded: %+v", reqDecode)
	}
	if reqDecode.Shift != a2.Shift {
		t.Fatalf("request on shift %d, expected %d", reqDecode.Shift, a2.Shift)
	}

	// The AP measures the request's strength and assigns a slot.
	measuredSNR := radio.LinearToDB(reqDecode.MeanPeakPower / res.NoiseBinPower / float64(p.N()))
	assign, err := ap.OnAssociationRequest(measuredSNR)
	if err != nil {
		t.Fatal(err)
	}

	// --- Round 2: the assignment rides the next query (here consumed
	// directly; the ASK downlink codec is covered by mac tests); dev2
	// ACKs on its new shift while dev1 keeps sending data.
	q2 := ap.NextQuery()
	if q2.Assign == nil {
		t.Fatal("assignment not piggybacked")
	}
	a1 = dev1.OnQuery(q2, -30)
	a2 = dev2.OnQuery(q2, dev2RSSI)
	if !a2.AssocAck {
		t.Fatalf("dev2 should ACK, got %+v", a2)
	}
	if a2.Shift != book.ShiftOfSlot(int(assign.Slot)) {
		t.Fatalf("ACK on shift %d, assigned slot %d", a2.Shift, assign.Slot)
	}
	ackPayload := []byte{0xAC, byte(dev2.NetworkID()), 0x00}
	rx2 := receiveFrames(p, rng, []frameTx{
		{shift: a1.Shift, payload: payload1, snr: 12 + a1.GainDB},
		{shift: a2.Shift, payload: ackPayload, snr: -4 + a2.GainDB},
	}, bits)
	res2, err := dec.DecodeFrame(rx2, 0, []int{a1.Shift, a2.Shift}, bits)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Devices[1].CRCOK || !bytes.Equal(res2.Devices[1].Payload, ackPayload) {
		t.Fatalf("ACK not decoded: %+v", res2.Devices[1])
	}
	ap.OnAssociationAck(dev2.NetworkID())

	if ap.Devices() != 2 {
		t.Fatalf("AP has %d devices, want 2", ap.Devices())
	}
	// --- Steady state: both devices' data decodes concurrently.
	q3 := ap.NextQuery()
	a1 = dev1.OnQuery(q3, -30)
	a2 = dev2.OnQuery(q3, dev2RSSI)
	if a2.AssocRequest || a2.AssocAck || !a2.Transmit {
		t.Fatalf("dev2 should send data, got %+v", a2)
	}
	payload2 := []byte{0x77, 0x88, 0x99}
	rx3 := receiveFrames(p, rng, []frameTx{
		{shift: a1.Shift, payload: payload1, snr: 12 + a1.GainDB},
		{shift: a2.Shift, payload: payload2, snr: -4 + a2.GainDB},
	}, bits)
	res3, err := dec.DecodeFrame(rx3, 0, []int{a1.Shift, a2.Shift}, bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res3.Devices[0].Payload, payload1) || !bytes.Equal(res3.Devices[1].Payload, payload2) {
		t.Fatal("steady-state concurrent decode failed")
	}
}

type frameTx struct {
	shift   int
	payload []byte
	snr     float64
}

func receiveFrames(p chirp.Params, rng *dsp.Rand, frames []frameTx, payloadBits int) []complex128 {
	var txs []air.Transmission
	for _, f := range frames {
		enc := core.NewEncoder(p, f.shift)
		pl := f.payload
		txs = append(txs, air.Transmission{
			Delayed: func(frac float64) []complex128 {
				return enc.FrameWaveformDelayed(pl, frac)
			},
			SNRdB:    f.snr,
			DelaySec: rng.Uniform(0, 1e-6),
		})
	}
	ch := air.NewChannel(p, rng)
	return ch.Receive(ch.FrameLength(core.PreambleSymbols+payloadBits, 2), txs)
}

func mustBook(t *testing.T) *core.CodeBook {
	t.Helper()
	book, err := core.NewCodeBook(chirp.Default500k9, 2)
	if err != nil {
		t.Fatal(err)
	}
	return book
}
