package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrameBitsRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		bits := FrameBits(payload)
		if len(bits) != len(payload)*8+CRCBits {
			return false
		}
		got, ok := checkFrameBits(bits)
		return ok && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBitsDetectsCorruption(t *testing.T) {
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}
	bits := FrameBits(payload)
	for i := range bits {
		bits[i] ^= 1
		if _, ok := checkFrameBits(bits); ok {
			t.Fatalf("bit flip at %d not detected", i)
		}
		bits[i] ^= 1
	}
}

func TestCheckFrameBitsRejectsBadLengths(t *testing.T) {
	if _, ok := checkFrameBits(nil); ok {
		t.Error("nil bits accepted")
	}
	if _, ok := checkFrameBits(make([]byte, 7)); ok {
		t.Error("too-short bits accepted")
	}
	if _, ok := checkFrameBits(make([]byte, 13)); ok {
		t.Error("non-byte-aligned payload accepted")
	}
}

func TestFrameSymbols(t *testing.T) {
	// 5-byte payload (the paper's network experiments): 8 preamble
	// symbols + 40 payload bits + 8 CRC bits.
	if got := FrameSymbols(5); got != 56 {
		t.Fatalf("FrameSymbols(5) = %d, want 56", got)
	}
}

// crc8Bits is the bitwise CRC-8/ATM over data bits (one bit per
// byte, MSB first): the definition the table-driven crc8 must match.
func crc8Bits(bits []byte) byte {
	var crc byte
	for _, b := range bits {
		crc ^= (b & 1) << 7
		if crc&0x80 != 0 {
			crc = crc<<1 ^ 0x07
		} else {
			crc <<= 1
		}
	}
	return crc
}

func TestCRC8KnownValue(t *testing.T) {
	// CRC-8/ATM of "123456789" is 0xF4.
	data := []byte("123456789")
	if got := crc8(data); got != 0xF4 {
		t.Fatalf("crc8(123456789) = %#x, want 0xF4", got)
	}
	if got := crc8Bits(bytesToBits(data)); got != 0xF4 {
		t.Fatalf("crc8Bits(123456789) = %#x, want 0xF4", got)
	}
}

// TestCRC8TableMatchesBitwise pins the table-driven crc8 to the bitwise
// definition on every 1- and 2-byte input and on random longer ones.
func TestCRC8TableMatchesBitwise(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		if got, want := crc8(data), crc8Bits(bytesToBits(data)); got != want {
			t.Fatalf("crc8(%x) = %#x, bitwise %#x", data, got, want)
		}
	}
	check(nil)
	for a := 0; a < 256; a++ {
		check([]byte{byte(a)})
		for b := 0; b < 256; b++ {
			check([]byte{byte(a), byte(b)})
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, 3+rng.Intn(62))
		rng.Read(data)
		check(data)
	}
}

// checkFrameBits is CheckFrameBitsInto into fresh storage, refusing a
// bit count that is not 8·k + CRCBits.
func checkFrameBits(bits []byte) (payload []byte, ok bool) {
	if len(bits) < CRCBits || (len(bits)-CRCBits)%8 != 0 {
		return nil, false
	}
	out := make([]byte, (len(bits)-CRCBits)/8)
	return out, CheckFrameBitsInto(out, bits)
}

// bytesToBits expands data into MSB-first bits, one per output byte.
func bytesToBits(data []byte) []byte {
	out := make([]byte, 0, len(data)*8)
	for _, d := range data {
		for i := 7; i >= 0; i-- {
			out = append(out, (d>>uint(i))&1)
		}
	}
	return out
}
