// Package core implements NetScatter's primary contribution: distributed
// chirp spread spectrum coding (§3 of the paper). Each concurrent device
// is assigned a distinct cyclic shift of the shared upchirp and ON-OFF
// keys that shift to convey bits; the access point decodes every device
// from a single dechirp + FFT per symbol.
//
// The package provides the cyclic-shift code book with SKIP guard
// spacing, the link-layer frame (six upchirp + two downchirp preamble,
// OOK payload, CRC-8), the device-side encoder, the concurrent
// single-FFT decoder with preamble-based device detection and per-device
// power thresholds, and the packet-start/offset estimators.
package core

import (
	"fmt"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// CodeBook maps devices to cyclic shifts. Assigned shifts are SKIP bins
// apart, leaving SKIP-1 empty FFT bins between devices so per-packet
// hardware timing jitter cannot make neighbours collide (§3.2.1). Slots
// are indexed by circular distance from the anchor bin 0: slot 0 is bin
// 0, slot 1 is the first slot on the other side of the circle, and so on
// — so consecutive slot indices are physically adjacent on the FFT
// circle. The power-aware allocator (internal/mac) assigns the
// strongest device to slot 0 and progressively weaker devices to farther
// slots, realising Fig. 8's high/low/high power layout.
type CodeBook struct {
	params chirp.Params
	skip   int
	slots  int
	// shiftOf maps slot index -> cyclic shift, ordered by circular
	// distance from bin 0 (ties broken toward the positive side).
	shiftOf []int
	slotOf  map[int]int
}

// NewCodeBook builds a code book for the parameter set with the given
// SKIP spacing (SKIP >= 1; the paper deploys SKIP = 2 at 500 kHz, SF 9).
func NewCodeBook(p chirp.Params, skip int) (*CodeBook, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if skip < 1 {
		return nil, fmt.Errorf("core: SKIP %d must be >= 1", skip)
	}
	n := p.N()
	if skip > n/2 {
		return nil, fmt.Errorf("core: SKIP %d too large for %d bins", skip, n)
	}
	c := &CodeBook{params: p, skip: skip, slots: n / skip}
	c.shiftOf = make([]int, 0, c.slots)
	c.slotOf = make(map[int]int, c.slots)
	// Zig-zag enumeration: bin 0, then alternating positive/negative
	// multiples of SKIP, so slot index increases with circular distance
	// from the anchor. When SKIP does not divide N the two sides meet
	// unevenly; walking multiples of SKIP on each side keeps every shift
	// a SKIP multiple.
	pos, neg := skip, n-skip
	c.shiftOf = append(c.shiftOf, 0)
	for len(c.shiftOf) < c.slots {
		dPos := dsp.CircularDistance(pos, 0, n)
		dNeg := dsp.CircularDistance(neg, 0, n)
		if dPos <= dNeg {
			c.shiftOf = append(c.shiftOf, pos)
			pos += skip
		} else {
			c.shiftOf = append(c.shiftOf, neg)
			neg -= skip
		}
	}
	for slot, shift := range c.shiftOf {
		c.slotOf[shift] = slot
	}
	return c, nil
}

// Params returns the code book's chirp parameters.
func (c *CodeBook) Params() chirp.Params { return c.params }

// Skip returns the SKIP spacing.
func (c *CodeBook) Skip() int { return c.skip }

// Slots returns the number of assignable cyclic shifts: N/SKIP (256 for
// SF 9 with SKIP 2).
func (c *CodeBook) Slots() int { return c.slots }

// ShiftOfSlot returns the cyclic shift for a slot index. Slots are
// ordered by circular distance from bin 0, alternating sides:
// slot 0 -> bin 0, slot 1 -> bin SKIP, slot 2 -> bin N-SKIP,
// slot 3 -> bin 2·SKIP, ... so higher slot indices are farther (in
// circular FFT-bin distance) from slot 0.
func (c *CodeBook) ShiftOfSlot(slot int) int {
	if slot < 0 || slot >= c.slots {
		panic(fmt.Sprintf("core: slot %d out of range [0,%d)", slot, c.slots))
	}
	return c.shiftOf[slot]
}

// AllShifts returns the cyclic shifts of all slots in slot order. The
// returned slice is fresh.
func (c *CodeBook) AllShifts() []int {
	out := make([]int, c.slots)
	copy(out, c.shiftOf)
	return out
}

// AssociationSlots returns the two reserved association slots: one in
// the high-SNR region (near slot 0) and one in the low-SNR region (the
// farthest slot), per §3.3.2. An incoming device picks the region
// matching its own query RSSI so its association transmission neither
// drowns nor is drowned by ongoing traffic.
func (c *CodeBook) AssociationSlots() (highSNR, lowSNR int) {
	return 1, c.slots - 1
}
