package mac

import (
	"fmt"
	"math/big"

	"netscatter/internal/core"
)

// The tag side of the query: the inverses the round-trip tests check
// EncodeBits and EncodePermutation against.

// DecodeBits parses a query from bits produced by EncodeBits.
func DecodeBits(bits []byte) (*Query, error) {
	if len(bits) < core.CRCBits || (len(bits)-core.CRCBits)%8 != 0 {
		return nil, fmt.Errorf("mac: query of %d bits", len(bits))
	}
	data := make([]byte, (len(bits)-core.CRCBits)/8)
	if !core.CheckFrameBitsInto(data, bits) {
		return nil, fmt.Errorf("mac: query CRC mismatch")
	}
	if len(data) < 3 {
		return nil, fmt.Errorf("mac: query too short (%d bytes)", len(data))
	}
	if data[0] != querySync {
		return nil, fmt.Errorf("mac: bad query sync byte %#x", data[0])
	}
	q := &Query{GroupID: data[1]}
	flags := data[2]
	rest := data[3:]
	if flags&flagAssign != 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("mac: truncated assignment")
		}
		q.Assign = &Assignment{NetworkID: rest[0], Slot: rest[1]}
		rest = rest[2:]
	}
	if flags&flagShuffle != 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("mac: truncated shuffle header")
		}
		n := int(rest[0]) + 1
		plen := int(rest[1])
		rest = rest[2:]
		if len(rest) < plen {
			return nil, fmt.Errorf("mac: truncated shuffle body (%d < %d)", len(rest), plen)
		}
		perm, err := DecodePermutation(rest[:plen], n)
		if err != nil {
			return nil, err
		}
		q.Shuffle = perm
	}
	return q, nil
}

// DecodePermutation reverses EncodePermutation for a permutation of
// length n.
func DecodePermutation(data []byte, n int) ([]int, error) {
	if len(data) != permBytes(n) {
		return nil, fmt.Errorf("mac: permutation blob %d bytes, want %d", len(data), permBytes(n))
	}
	idx := new(big.Int).SetBytes(data)
	fact := big.NewInt(1)
	for i := 2; i <= n; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
	}
	if idx.Cmp(fact) >= 0 {
		return nil, fmt.Errorf("mac: permutation index out of range")
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	perm := make([]int, 0, n)
	for i := 0; i < n; i++ {
		fact.Div(fact, big.NewInt(int64(n-i)))
		pos := new(big.Int)
		pos.DivMod(idx, fact, idx)
		p := int(pos.Int64())
		if p >= len(remaining) {
			return nil, fmt.Errorf("mac: corrupt permutation index")
		}
		perm = append(perm, remaining[p])
		remaining = append(remaining[:p], remaining[p+1:]...)
	}
	return perm, nil
}
