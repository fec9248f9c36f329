package core

// Link-layer frame structure (§3.3.1): every device's packet is
//
//	6 upchirps + 2 downchirps (preamble, all with the device's assigned
//	cyclic shift) followed by the ON-OFF keyed payload and a CRC-8.
//
// All concurrent devices send their preambles at the same time, so the
// preamble overhead is paid once per round rather than once per device —
// the main source of NetScatter's link-layer gain (Fig. 18).

const (
	// PreambleUpSymbols is the number of leading upchirps.
	PreambleUpSymbols = 6
	// PreambleDownSymbols is the number of trailing downchirps used to
	// locate the exact packet start (§3.3.1).
	PreambleDownSymbols = 2
	// PreambleSymbols is the total preamble length in symbols.
	PreambleSymbols = PreambleUpSymbols + PreambleDownSymbols
	// CRCBits is the length of the frame check sequence.
	CRCBits = 8
)

// crc8 computes the CRC-8/ATM (poly 0x07, init 0, MSB first) checksum
// of data, a byte at a time from crc8Table. Over packed bytes it equals
// the bitwise CRC of their MSB-first bits, the frame's on-air order.
func crc8(data []byte) byte {
	var crc byte
	for _, d := range data {
		crc = crc8Table[crc^d]
	}
	return crc
}

// crc8Table[b] is the CRC-8/ATM register after shifting the byte b
// through it from zero: eight steps of the bitwise division.
var crc8Table = func() (t [256]byte) {
	for i := range t {
		crc := byte(i)
		for k := 0; k < 8; k++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// FrameBits returns the on-air payload section for a data payload:
// the payload bits followed by their CRC-8. Each bit occupies one chirp
// symbol (ON-OFF keying).
func FrameBits(payload []byte) []byte {
	bits := make([]byte, len(payload)*8+CRCBits)
	FrameBitsInto(bits, payload)
	return bits
}

// FrameBitsInto is FrameBits writing into caller-owned storage — the
// simulator's round context keeps every device's bit section in one
// arena. dst must hold len(payload)*8 + CRCBits bytes.
func FrameBitsInto(dst []byte, payload []byte) {
	if len(dst) != len(payload)*8+CRCBits {
		panic("core: FrameBitsInto dst length mismatch")
	}
	k := 0
	for _, d := range payload {
		for i := 7; i >= 0; i-- {
			dst[k] = (d >> uint(i)) & 1
			k++
		}
	}
	crc := crc8(payload)
	for i := 7; i >= 0; i-- {
		dst[k] = (crc >> uint(i)) & 1
		k++
	}
}

// CheckFrameBitsInto verifies and strips the CRC from a received
// payload section, decoding into caller-owned storage — the
// allocation-free decoder packs payloads straight into its arena. The
// bit count must be 8·k + CRCBits and dst must hold k bytes; dst is
// filled with the decoded payload whenever the bit count is
// structurally valid, and the return value reports whether the CRC
// matched.
func CheckFrameBitsInto(dst []byte, bits []byte) bool {
	if len(bits) < CRCBits || (len(bits)-CRCBits)%8 != 0 {
		return false
	}
	data := bits[:len(bits)-CRCBits]
	if len(dst) != len(data)/8 {
		panic("core: CheckFrameBitsInto dst length mismatch")
	}
	for i := range dst {
		var v byte
		for j := 0; j < 8; j++ {
			v = v<<1 | (data[i*8+j] & 1)
		}
		dst[i] = v
	}
	var rx byte
	for _, b := range bits[len(bits)-CRCBits:] {
		rx = rx<<1 | (b & 1)
	}
	return crc8(dst) == rx
}

// FrameSymbols returns the total number of chirp-symbol periods a frame
// with payloadBytes of data occupies, including preamble and CRC.
func FrameSymbols(payloadBytes int) int {
	return PreambleSymbols + payloadBytes*8 + CRCBits
}
