package mac

import (
	"fmt"
	"sort"

	"netscatter/internal/core"
)

// Allocator performs the coarse-grained power-aware cyclic-shift
// assignment of §3.2.3: devices sorted by signal strength are mapped to
// code-book slots sorted by circular distance from the anchor bin, so
// low-SNR devices end up far (in FFT-bin distance) from high-SNR devices
// and outside their side lobes (Fig. 8). The two association slots and
// their immediate neighbours are never assigned (§3.3.2: association
// shifts keep a SKIP guard from communication shifts).
type Allocator struct {
	book     *core.CodeBook
	reserved map[int]bool
	// assignments: slot -> network ID, and the SNR each was assigned at.
	bySlot map[int]uint8
	snrOf  map[uint8]float64
	slotOf map[uint8]int
}

// ReservedSlots returns the slots no data device may occupy: the two
// association slots plus one slot of guard on each side (§3.3.2). Both
// the AP's allocator and every device compute this identically, so the
// shuffle message can refer to "the i-th assignable slot" without
// transmitting the reserved set.
func ReservedSlots(book *core.CodeBook) map[int]bool {
	reserved := map[int]bool{}
	hi, lo := book.AssociationSlots()
	for _, s := range []int{hi, lo} {
		reserved[s] = true
		// Guard the slots physically adjacent on the circle (slots s±2
		// share a side with s in the zig-zag ordering).
		for _, g := range []int{s - 2, s - 1, s + 1, s + 2} {
			if g >= 0 && g < book.Slots() {
				reserved[g] = true
			}
		}
	}
	return reserved
}

// AssignableSlot returns the i-th non-reserved slot in slot order, or
// -1 when out of range.
func AssignableSlot(book *core.CodeBook, i int) int {
	reserved := ReservedSlots(book)
	k := 0
	for s := 0; s < book.Slots(); s++ {
		if reserved[s] {
			continue
		}
		if k == i {
			return s
		}
		k++
	}
	return -1
}

// NewAllocator builds an allocator over a code book with the
// association slots (and their guards) reserved.
func NewAllocator(book *core.CodeBook) *Allocator {
	return &Allocator{
		book:     book,
		reserved: ReservedSlots(book),
		bySlot:   map[int]uint8{},
		snrOf:    map[uint8]float64{},
		slotOf:   map[uint8]int{},
	}
}

// NewDataOnlyAllocator builds an allocator with no reserved slots, for
// measurement rounds where every slot carries data — the paper's 256
// concurrent devices occupy all 2^SF/SKIP shifts (§4.4; association
// happened before the measured rounds).
func NewDataOnlyAllocator(book *core.CodeBook) *Allocator {
	return &Allocator{
		book:     book,
		reserved: map[int]bool{},
		bySlot:   map[int]uint8{},
		snrOf:    map[uint8]float64{},
		slotOf:   map[uint8]int{},
	}
}

// Len returns the number of assigned devices.
func (a *Allocator) Len() int { return len(a.bySlot) }

// AssignAll performs a full (re)assignment: devices sorted by SNR
// descending take slots in increasing slot order (increasing circular
// distance from the anchor). Returns slotOf keyed by device index into
// ids. ids and snrs run in parallel.
func (a *Allocator) AssignAll(ids []uint8, snrs []float64) map[uint8]int {
	type rec struct {
		id  uint8
		snr float64
	}
	recs := make([]rec, len(ids))
	for i := range ids {
		recs[i] = rec{ids[i], snrs[i]}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].snr > recs[j].snr })

	a.bySlot = map[int]uint8{}
	a.snrOf = map[uint8]float64{}
	a.slotOf = map[uint8]int{}
	out := make(map[uint8]int, len(ids))
	slot := 0
	for _, r := range recs {
		for slot < a.book.Slots() && a.reserved[slot] {
			slot++
		}
		if slot >= a.book.Slots() {
			break
		}
		a.bySlot[slot] = r.id
		a.snrOf[r.id] = r.snr
		a.slotOf[r.id] = slot
		out[r.id] = slot
		slot++
	}
	return out
}

// MaxInsertGapDB is how far (in dB) an inserted device's SNR may deviate
// from the SNR rank of the free slot it takes before the AP prefers a
// full reshuffle. The in-built tolerance between adjacent cyclic shifts
// is about 5 dB (§4.3), so a 10 dB misplacement risks side-lobe drowning.
const MaxInsertGapDB = 10

// Insert adds one device incrementally. It finds the free non-reserved
// slot whose SNR neighbourhood best matches the device and returns it.
// needShuffle reports that no free slot fits within MaxInsertGapDB and
// the AP should reassign everyone (the paper's 256!-ordering update).
func (a *Allocator) Insert(id uint8, snr float64) (slot int, needShuffle bool, ok bool) {
	bestSlot, bestGap := -1, 1e18
	for s := 0; s < a.book.Slots(); s++ {
		if a.reserved[s] {
			continue
		}
		if _, taken := a.bySlot[s]; taken {
			continue
		}
		gap := a.neighbourGap(s, snr)
		if gap < bestGap {
			bestGap, bestSlot = gap, s
		}
	}
	if bestSlot < 0 {
		return 0, false, false
	}
	if bestGap > MaxInsertGapDB {
		return 0, true, true
	}
	a.bySlot[bestSlot] = id
	a.snrOf[id] = snr
	a.slotOf[id] = bestSlot
	return bestSlot, false, true
}

// Adopt records an existing (id, slot, snr) assignment made out of
// band — the warm-start path for an AP taking over a deployment whose
// slots were assigned at association time by a bulk AssignAll. It
// fails when the slot is reserved or taken, or the id already holds a
// slot; it performs no fit heuristics (the assignment already exists
// in the air, adopting it differently would desynchronize AP and
// device).
func (a *Allocator) Adopt(id uint8, slot int, snr float64) error {
	if slot < 0 || slot >= a.book.Slots() {
		return fmt.Errorf("mac: adopt slot %d outside book (%d slots)", slot, a.book.Slots())
	}
	if a.reserved[slot] {
		return fmt.Errorf("mac: adopt of reserved slot %d", slot)
	}
	if other, taken := a.bySlot[slot]; taken {
		return fmt.Errorf("mac: adopt slot %d already held by device %d", slot, other)
	}
	if s, ok := a.slotOf[id]; ok {
		return fmt.Errorf("mac: device %d already holds slot %d", id, s)
	}
	a.bySlot[slot] = id
	a.snrOf[id] = snr
	a.slotOf[id] = slot
	return nil
}

// Remove releases a device's slot (e.g. when it re-associates).
func (a *Allocator) Remove(id uint8) {
	if s, ok := a.slotOf[id]; ok {
		delete(a.bySlot, s)
		delete(a.slotOf, id)
		delete(a.snrOf, id)
	}
}

// UpdateSNR records a device's latest signal strength (used on the next
// full reshuffle).
func (a *Allocator) UpdateSNR(id uint8, snr float64) {
	if _, ok := a.slotOf[id]; ok {
		a.snrOf[id] = snr
	}
}

// neighbourGap measures how badly snr fits at slot s: the worst absolute
// SNR difference against the nearest assigned slots on either side (in
// slot order, which tracks circular distance). An empty neighbourhood
// fits perfectly.
func (a *Allocator) neighbourGap(s int, snr float64) float64 {
	worst := 0.0
	for d := 1; d <= 4; d++ {
		for _, nb := range []int{s - d, s + d} {
			if nb < 0 || nb >= a.book.Slots() {
				continue
			}
			if id, ok := a.bySlot[nb]; ok {
				gap := a.snrOf[id] - snr
				if gap < 0 {
					gap = -gap
				}
				// Closer neighbours matter more.
				gap /= float64(d)
				if gap > worst {
					worst = gap
				}
			}
		}
	}
	return worst
}
