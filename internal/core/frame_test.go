package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBytesBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		if len(bits) != len(data)*8 {
			return false
		}
		return bytes.Equal(BitsToBytes(bits), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBitsRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		bits := FrameBits(payload)
		if len(bits) != len(payload)*8+CRCBits {
			return false
		}
		got, ok := CheckFrameBits(bits)
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
		if _, ok := CheckFrameBits(bits); ok {
			t.Fatalf("bit flip at %d not detected", i)
		}
		bits[i] ^= 1
	}
}

func TestCheckFrameBitsRejectsBadLengths(t *testing.T) {
	if _, ok := CheckFrameBits(nil); ok {
		t.Error("nil bits accepted")
	}
	if _, ok := CheckFrameBits(make([]byte, 7)); ok {
		t.Error("too-short bits accepted")
	}
	if _, ok := CheckFrameBits(make([]byte, 13)); ok {
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
	if got := crc8Bits(BytesToBits(data)); got != 0xF4 {
		t.Fatalf("crc8Bits(123456789) = %#x, want 0xF4", got)
	}
}

// TestCRC8TableMatchesBitwise pins the table-driven crc8 to the bitwise
// definition on every 1- and 2-byte input and on random longer ones.
func TestCRC8TableMatchesBitwise(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		if got, want := crc8(data), crc8Bits(BytesToBits(data)); got != want {
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

func TestOnFraction(t *testing.T) {
	if got := OnFraction([]byte{1, 0, 1, 0}); got != 0.5 {
		t.Fatalf("OnFraction = %v, want 0.5", got)
	}
	if got := OnFraction(nil); got != 0 {
		t.Fatalf("OnFraction(nil) = %v, want 0", got)
	}
}
