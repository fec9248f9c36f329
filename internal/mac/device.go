package mac

import (
	"netscatter/internal/core"
)

// DeviceState is a tag's protocol state (Fig. 10).
type DeviceState int

const (
	// StateUnassociated: the device has no slot; it answers queries
	// with an association request on a reserved association shift.
	StateUnassociated DeviceState = iota
	// StateWaitAssign: the request is sent; the device watches queries
	// for its assignment.
	StateWaitAssign
	// StateAssociated: the device has a slot and sends data each round
	// (power permitting).
	StateAssociated
)

// Action describes what a device transmits in response to one query.
type Action struct {
	// Transmit is false when the device sits the round out.
	Transmit bool
	// Shift is the cyclic shift to use.
	Shift int
	// GainDB is the backscatter power gain setting.
	GainDB float64
	// AssocRequest marks an association request transmission.
	AssocRequest bool
	// AssocAck marks the association ACK transmission.
	AssocAck bool
}

// Device is the tag-side protocol engine: association, slot tracking
// through shuffles, and power adaptation. The physical layer (chirp
// synthesis, RF impairments) lives in internal/sim; this type only
// decides what to send.
type Device struct {
	book  *core.CodeBook
	pc    *PowerController
	state DeviceState

	networkID uint8
	slot      int
}

// NewDevice builds an unassociated device over the network's code book.
func NewDevice(book *core.CodeBook) *Device {
	return &Device{book: book, pc: NewPowerController()}
}

// NetworkID returns the assigned ID (valid once associated).
func (d *Device) NetworkID() uint8 { return d.networkID }

// Slot returns the assigned slot (valid once associated).
func (d *Device) Slot() int { return d.slot }

// OnQuery reacts to one decoded AP query heard at the given envelope-
// detector RSSI and returns the transmission decision for this round.
func (d *Device) OnQuery(q *Query, rssiDBm float64) Action {
	switch d.state {
	case StateUnassociated:
		// Choose the association region matching our own downlink
		// strength: strong devices use the high-SNR shift, weak ones
		// the low-SNR shift, so the request neither drowns nor is
		// drowned by ongoing traffic (§3.3.2).
		hi, lo := d.book.AssociationSlots()
		slot := lo
		if rssiDBm >= d.pc.LowRSSIThresholdDBm {
			slot = hi
		}
		gain := d.pc.AssociateGainDB(rssiDBm)
		d.state = StateWaitAssign
		return Action{
			Transmit:     true,
			Shift:        d.book.ShiftOfSlot(slot),
			GainDB:       gain,
			AssocRequest: true,
		}

	case StateWaitAssign:
		if q.Assign != nil {
			d.networkID = q.Assign.NetworkID
			d.slot = int(q.Assign.Slot)
			d.state = StateAssociated
			gain, _ := d.pc.Adjust(rssiDBm)
			return Action{
				Transmit: true,
				Shift:    d.book.ShiftOfSlot(d.slot),
				GainDB:   gain,
				AssocAck: true,
			}
		}
		// Assignment lost: retry the request next round.
		d.state = StateUnassociated
		return Action{}

	default: // StateAssociated
		d.applyShuffle(q)
		gain, participate := d.pc.Adjust(rssiDBm)
		if d.pc.NeedsReassociation() {
			d.state = StateUnassociated
			d.pc.Reset()
			return Action{}
		}
		return Action{
			Transmit: participate,
			Shift:    d.book.ShiftOfSlot(d.slot),
			GainDB:   gain,
		}
	}
}

// applyShuffle updates the device's slot from a full-reassignment
// query. Shuffle[i] is the rank of the network ID owning the i-th
// assignable slot; network IDs are handed out densely (0, 1, 2, ...),
// so a device's rank equals its own ID and it can locate its new slot
// without any per-device signalling — the whole point of encoding the
// reassignment as one of the n! orderings (§3.3.3).
func (d *Device) applyShuffle(q *Query) {
	if q.Shuffle == nil {
		return
	}
	for i, rank := range q.Shuffle {
		if rank == int(d.networkID) {
			if s := AssignableSlot(d.book, i); s >= 0 {
				d.slot = s
			}
			return
		}
	}
}
