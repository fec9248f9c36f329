package mac

import (
	"fmt"
	"slices"

	"netscatter/internal/core"
)

// DeviceRecord is the AP's view of one associated device.
type DeviceRecord struct {
	NetworkID uint8
	Slot      int
	SNRdB     float64
	Acked     bool
}

// AP is the access-point side of the NetScatter protocol: it owns the
// allocator, hands out network IDs, piggybacks association responses on
// queries and schedules full reshuffles when an insert does not fit
// (§3.3.2-§3.3.4, Fig. 10).
type AP struct {
	book    *core.CodeBook
	alloc   *Allocator
	records map[uint8]*DeviceRecord
	groupID uint8
	nextID  uint8

	pending  *Assignment // association response awaiting ACK
	shuffled bool        // a reshuffle must ride on the next query
}

// NewAP builds an AP over a code book.
func NewAP(book *core.CodeBook) *AP {
	return NewAPWith(book, NewAllocator(book))
}

// NewAPWith builds an AP over a caller-supplied allocator — e.g. the
// data-only allocator measurement deployments use, where every slot
// carries data and association happened before the measured rounds.
func NewAPWith(book *core.CodeBook, alloc *Allocator) *AP {
	return &AP{
		book:    book,
		alloc:   alloc,
		records: map[uint8]*DeviceRecord{},
	}
}

// Devices returns the number of associated (ACKed) devices.
func (ap *AP) Devices() int {
	n := 0
	for _, r := range ap.records {
		if r.Acked {
			n++
		}
	}
	return n
}

// Record returns a device record by network ID.
func (ap *AP) Record(id uint8) (*DeviceRecord, bool) {
	r, ok := ap.records[id]
	return r, ok
}

// NextQuery builds the query for the next round. The pending association
// response (if any) rides along; it is repeated on every query until the
// AP sees the device's ACK (§3.3.4). After a reshuffle, the full slot
// permutation is included once.
func (ap *AP) NextQuery() *Query {
	q := &Query{GroupID: ap.groupID}
	if ap.pending != nil {
		a := *ap.pending
		q.Assign = &a
	}
	if ap.shuffled {
		q.Shuffle = ap.slotPermutation()
		ap.shuffled = false
	}
	return q
}

// OnAssociationRequest handles a decoded association transmission with
// the measured backscatter signal strength. It allocates a network ID
// and slot (possibly reshuffling everyone to fit the newcomer) and
// stages the assignment for the next query.
func (ap *AP) OnAssociationRequest(snrDB float64) (*Assignment, error) {
	if ap.pending != nil {
		// One association in flight at a time (the deployment turns
		// devices on one by one, §3.3.2).
		return nil, fmt.Errorf("mac: association already in progress")
	}
	id, err := ap.allocateID()
	if err != nil {
		return nil, err
	}
	slot, needShuffle, ok := ap.alloc.Insert(id, snrDB)
	if !ok {
		return nil, fmt.Errorf("mac: network full (%d devices)", ap.alloc.Len())
	}
	if needShuffle {
		ids, snrs := ap.allIDsSNRs()
		ids = append(ids, id)
		snrs = append(snrs, snrDB)
		assign := ap.alloc.AssignAll(ids, snrs)
		for devID, s := range assign {
			if r, exists := ap.records[devID]; exists {
				r.Slot = s
			}
		}
		slot = assign[id]
		ap.shuffled = true
	}
	ap.records[id] = &DeviceRecord{NetworkID: id, Slot: slot, SNRdB: snrDB}
	ap.pending = &Assignment{NetworkID: id, Slot: uint8(slot)}
	return ap.pending, nil
}

// AdoptAssignment warm-starts the AP's protocol state with an existing
// (id, slot, snr) assignment made out of band: the simulator's
// networks assign every device's slot in one association-time bulk
// AssignAll, and a trajectory runner that wants the AP's dynamic
// machinery (OnDeviceLost, re-association) afterwards must seed the
// AP's records and allocator with exactly those slots — going through
// OnAssociationRequest would assign different ones and desynchronize
// the AP from the waveforms already on the air. The record starts
// Acked (the device is already transmitting data). nextID is advanced
// past id so later dynamic associations never reissue an adopted ID.
func (ap *AP) AdoptAssignment(id uint8, slot int, snrDB float64) error {
	if _, exists := ap.records[id]; exists {
		return fmt.Errorf("mac: device %d already associated", id)
	}
	if err := ap.alloc.Adopt(id, slot, snrDB); err != nil {
		return err
	}
	ap.records[id] = &DeviceRecord{NetworkID: id, Slot: slot, SNRdB: snrDB, Acked: true}
	if id >= ap.nextID {
		ap.nextID = id + 1
	}
	return nil
}

// OnAssociationAck marks the pending device as fully associated.
func (ap *AP) OnAssociationAck(id uint8) {
	if r, ok := ap.records[id]; ok {
		r.Acked = true
	}
	if ap.pending != nil && ap.pending.NetworkID == id {
		ap.pending = nil
	}
}

// OnDeviceLost removes a device (re-association or timeout).
func (ap *AP) OnDeviceLost(id uint8) {
	ap.alloc.Remove(id)
	delete(ap.records, id)
	if ap.pending != nil && ap.pending.NetworkID == id {
		ap.pending = nil
	}
}

// UpdateSNR feeds back the signal strength measured during a data round.
func (ap *AP) UpdateSNR(id uint8, snrDB float64) {
	if r, ok := ap.records[id]; ok {
		r.SNRdB = snrDB
		ap.alloc.UpdateSNR(id, snrDB)
	}
}

func (ap *AP) allocateID() (uint8, error) {
	for i := 0; i < 256; i++ {
		id := ap.nextID
		ap.nextID++
		if _, taken := ap.records[id]; !taken {
			return id, nil
		}
	}
	return 0, fmt.Errorf("mac: no free network IDs")
}

// allIDsSNRs returns every associated device's id and SNR in ascending
// id order. AssignAll's stable sort breaks SNR ties by input order, so
// a fixed order keeps re-association slot assignments reproducible; map
// iteration order would not.
func (ap *AP) allIDsSNRs() (ids []uint8, snrs []float64) {
	for id := range ap.records {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		snrs = append(snrs, ap.records[id].SNRdB)
	}
	return ids, snrs
}

// slotPermutation serializes the current slot assignment as a
// permutation over device indices for the shuffle query. Index i of the
// result is the network ID owning the i-th assigned slot (in slot
// order); unassigned tail entries are filled with the remaining IDs so
// the result is a valid permutation of 0..n-1.
func (ap *AP) slotPermutation() []int {
	n := ap.alloc.Len()
	perm := make([]int, 0, n)
	seen := map[int]bool{}
	for s := 0; s < ap.book.Slots() && len(perm) < n; s++ {
		if id, ok := ap.alloc.bySlot[s]; ok {
			perm = append(perm, int(id))
			seen[int(id)] = true
		}
	}
	return normalizePerm(perm)
}

// normalizePerm maps arbitrary distinct ints to a permutation of
// 0..n-1 preserving order structure (rank transform), so it can be
// Lehmer-encoded.
func normalizePerm(vals []int) []int {
	type kv struct{ v, pos int }
	sorted := make([]kv, len(vals))
	for i, v := range vals {
		sorted[i] = kv{v, i}
	}
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].v < sorted[j-1].v; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := make([]int, len(vals))
	for rank, e := range sorted {
		out[e.pos] = rank
	}
	return out
}
