// Package mac implements the NetScatter protocol layer (§3.3): the AP's
// ASK query message, the association state machine, power-aware cyclic
// shift allocation and the device-side zero-overhead power adaptation.
package mac

import (
	"math/big"

	"netscatter/internal/core"
)

// Assignment is the optional association response piggybacked on a
// query (Fig. 11): an 8-bit network ID and an 8-bit cyclic-shift slot.
type Assignment struct {
	NetworkID uint8
	Slot      uint8
}

// Query is the AP's downlink message (Fig. 11). The group ID selects
// which set of up to 256 devices responds concurrently. An optional
// Assignment carries an association response; an optional Shuffle
// carries a full reassignment of every slot, encoded as the index of
// one of the 256! orderings (§3.3.3: "log2(256!) <= 1700 bits").
type Query struct {
	GroupID uint8
	// Assign, when non-nil, tells the device that just requested
	// association which network ID and slot it received.
	Assign *Assignment
	// Shuffle, when non-nil, reassigns all devices: Shuffle[slot] is
	// the network ID now owning that slot. Must be a permutation of
	// 0..len-1 device indices.
	Shuffle []int
}

const (
	flagAssign  = 1 << 0
	flagShuffle = 1 << 1

	// querySync is the fixed leading byte of every query (the ASK
	// downlink's start-of-message marker for the envelope detector).
	querySync = 0xA5
)

// EncodeBits serializes the query to bits (one bit per byte, MSB first)
// with a leading sync byte and trailing CRC-8. Config 1 of §4.4
// (32 bits: sync + group + flags + CRC) is a query with just the group
// ID; Config 2 (~1760 bits) is a query with a full 256-slot shuffle.
func (q *Query) EncodeBits() []byte {
	data := []byte{querySync, q.GroupID}
	var flags byte
	if q.Assign != nil {
		flags |= flagAssign
	}
	if q.Shuffle != nil {
		flags |= flagShuffle
	}
	data = append(data, flags)
	if q.Assign != nil {
		data = append(data, q.Assign.NetworkID, q.Assign.Slot)
	}
	if q.Shuffle != nil {
		perm := EncodePermutation(q.Shuffle)
		data = append(data, byte(len(q.Shuffle)-1))
		data = append(data, byte(len(perm)))
		data = append(data, perm...)
	}
	return core.FrameBits(data)
}

// BitLength returns the on-air length of the encoded query in bits.
func (q *Query) BitLength() int { return len(q.EncodeBits()) }

// EncodePermutation packs a permutation of 0..n-1 into its Lehmer-code
// index, the densest possible encoding: ceil(log2(n!)) bits (1684 for
// n = 256, matching the paper's "<= 1700 bits" bound).
func EncodePermutation(perm []int) []byte {
	n := len(perm)
	// Lehmer code: for each position, count how many smaller elements
	// remain to its right.
	idx := big.NewInt(0)
	fact := big.NewInt(1)
	for i := 2; i <= n; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	for i, v := range perm {
		// position of v among remaining values
		pos := 0
		for j, r := range remaining {
			if r == v {
				pos = j
				break
			}
		}
		fact.Div(fact, big.NewInt(int64(n-i)))
		term := new(big.Int).Mul(big.NewInt(int64(pos)), fact)
		idx.Add(idx, term)
		remaining = append(remaining[:pos], remaining[pos+1:]...)
	}
	// Fixed width so the decoder knows the length.
	out := idx.Bytes()
	width := permBytes(n)
	padded := make([]byte, width)
	copy(padded[width-len(out):], out)
	return padded
}

// permBytes returns the byte width of an encoded n-permutation:
// ceil(log2(n!)/8).
func permBytes(n int) int {
	fact := big.NewInt(1)
	for i := 2; i <= n; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
	}
	return (fact.BitLen() + 7) / 8
}
