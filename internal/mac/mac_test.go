package mac

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"netscatter/internal/chirp"
	"netscatter/internal/core"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
)

func testBook(t *testing.T) *core.CodeBook {
	t.Helper()
	book, err := core.NewCodeBook(chirp.Default500k9, 2)
	if err != nil {
		t.Fatal(err)
	}
	return book
}

// --- query codec ---

func TestQueryRoundTripMinimal(t *testing.T) {
	q := &Query{GroupID: 3}
	got, err := DecodeBits(q.EncodeBits())
	if err != nil {
		t.Fatal(err)
	}
	if got.GroupID != 3 || got.Assign != nil || got.Shuffle != nil {
		t.Fatalf("decoded %+v", got)
	}
}

func TestQueryRoundTripAssignment(t *testing.T) {
	q := &Query{GroupID: 0, Assign: &Assignment{NetworkID: 17, Slot: 200}}
	got, err := DecodeBits(q.EncodeBits())
	if err != nil {
		t.Fatal(err)
	}
	if got.Assign == nil || *got.Assign != *q.Assign {
		t.Fatalf("assignment lost: %+v", got.Assign)
	}
}

func TestQueryRoundTripQuick(t *testing.T) {
	f := func(group, id, slot uint8, withAssign bool) bool {
		q := &Query{GroupID: group}
		if withAssign {
			q.Assign = &Assignment{NetworkID: id, Slot: slot}
		}
		got, err := DecodeBits(q.EncodeBits())
		if err != nil {
			return false
		}
		if got.GroupID != group {
			return false
		}
		if withAssign {
			return got.Assign != nil && *got.Assign == *q.Assign
		}
		return got.Assign == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryCorruptionDetected(t *testing.T) {
	bits := (&Query{GroupID: 9}).EncodeBits()
	bits[3] ^= 1
	if _, err := DecodeBits(bits); err == nil {
		t.Fatal("corrupted query accepted")
	}
}

func TestQueryConfigSizes(t *testing.T) {
	// §4.4: Config 1 queries are 32 bits; Config 2 (full 256-device
	// shuffle) is ~1760 bits, i.e. log2(256!) <= 1700 plus framing.
	q1 := &Query{GroupID: 0}
	if got := q1.BitLength(); got != 32 {
		t.Fatalf("config-1 query = %d bits, want 32", got)
	}
	perm := make([]int, 256)
	for i := range perm {
		perm[i] = (i*37 + 11) % 256
	}
	q2 := &Query{GroupID: 0, Shuffle: perm}
	if got := q2.BitLength(); got < 1700 || got > 1800 {
		t.Fatalf("config-2 query = %d bits, want ~1760", got)
	}
	// On-air duration at 160 kbps ~ 11 ms (§3.3.3).
	if d := radio.DefaultASK.Duration(q2.BitLength()); d < 0.010 || d > 0.012 {
		t.Fatalf("config-2 duration = %v", d)
	}
}

func TestPermutationRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 256} {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = (i*7 + 3) % n
		}
		// make it a real permutation
		seen := map[int]bool{}
		k := 0
		for i := range perm {
			for seen[perm[i]] {
				perm[i] = k
				k++
			}
			seen[perm[i]] = true
		}
		got, err := DecodePermutation(EncodePermutation(perm), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, perm) {
			t.Fatalf("n=%d: %v != %v", n, got, perm)
		}
	}
}

func TestPermutationQuick(t *testing.T) {
	rng := dsp.NewRand(1)
	f := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		perm := rng.Perm(n)
		got, err := DecodePermutation(EncodePermutation(perm), n)
		return err == nil && reflect.DeepEqual(got, perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationDensity(t *testing.T) {
	// ceil(log2(256!)/8) bytes = 211 (1688 bits <= the paper's 1700).
	if got := permBytes(256); got != 211 {
		t.Fatalf("permBytes(256) = %d", got)
	}
}

// --- allocator ---

func TestAssignAllSortsBySNR(t *testing.T) {
	book := testBook(t)
	a := NewAllocator(book)
	n := 50
	ids := make([]uint8, n)
	snrs := make([]float64, n)
	rng := dsp.NewRand(2)
	for i := range ids {
		ids[i] = uint8(i)
		snrs[i] = rng.Uniform(-15, 25)
	}
	assign := a.AssignAll(ids, snrs)
	if len(assign) != n {
		t.Fatalf("assigned %d of %d", len(assign), n)
	}
	// Slot order must follow SNR order: lower slot -> higher SNR.
	var slots []int
	var slotSNRs []float64
	for s := 0; s < book.Slots(); s++ {
		if id, ok := a.bySlot[s]; ok {
			slots = append(slots, s)
			slotSNRs = append(slotSNRs, a.snrOf[id])
		}
	}
	for i := 1; i < len(slotSNRs); i++ {
		if slotSNRs[i] > slotSNRs[i-1]+1e-9 {
			t.Fatalf("SNR increases from slot %d to %d", slots[i-1], slots[i])
		}
	}
	// No duplicates, nothing reserved.
	seen := map[int]bool{}
	reserved := ReservedSlots(book)
	for _, s := range assign {
		if seen[s] {
			t.Fatalf("slot %d assigned twice", s)
		}
		if reserved[s] {
			t.Fatalf("reserved slot %d assigned", s)
		}
		seen[s] = true
	}
}

func TestAllocatorInsertFitsSimilarSNR(t *testing.T) {
	book := testBook(t)
	a := NewAllocator(book)
	ids := []uint8{0, 1, 2, 3}
	snrs := []float64{20, 15, 10, 5}
	a.AssignAll(ids, snrs)
	// A 14 dB device fits between existing neighbours without a
	// reshuffle.
	slot, needShuffle, ok := a.Insert(9, 14)
	if !ok || needShuffle {
		t.Fatalf("insert: slot=%d shuffle=%v ok=%v", slot, needShuffle, ok)
	}
	if _, taken := a.slotOf[9]; !taken {
		t.Fatal("device not recorded")
	}
}

func TestAllocatorInsertRequestsShuffle(t *testing.T) {
	book, _ := core.NewCodeBook(chirp.Params{SF: 6, BW: 125e3, Oversample: 1}, 2)
	a := NewAllocator(book)
	// Fill most slots with high-SNR devices.
	n := a.book.Slots() - len(a.reserved)
	ids := make([]uint8, n-1)
	snrs := make([]float64, n-1)
	for i := range ids {
		ids[i] = uint8(i)
		snrs[i] = 25 - float64(i)*0.1
	}
	a.AssignAll(ids, snrs)
	// A far weaker newcomer does not fit next to the remaining free
	// slot's neighbours.
	_, needShuffle, ok := a.Insert(200, -25)
	if !ok {
		t.Fatal("insert rejected outright")
	}
	if !needShuffle {
		t.Fatal("expected a reshuffle request for a badly fitting device")
	}
}

func TestAllocatorRemoveFreesSlot(t *testing.T) {
	book := testBook(t)
	a := NewAllocator(book)
	a.AssignAll([]uint8{1}, []float64{10})
	slot := a.slotOf[1]
	a.Remove(1)
	if _, still := a.slotOf[1]; still {
		t.Fatal("device still assigned")
	}
	got, needShuffle, ok := a.Insert(2, 10)
	if !ok || needShuffle || got != slot {
		t.Fatalf("freed slot not reused: %d vs %d", got, slot)
	}
}

func TestAssignableSlotConsistency(t *testing.T) {
	book := testBook(t)
	reserved := ReservedSlots(book)
	k := 0
	for s := 0; s < book.Slots(); s++ {
		if reserved[s] {
			continue
		}
		if got := AssignableSlot(book, k); got != s {
			t.Fatalf("AssignableSlot(%d) = %d, want %d", k, got, s)
		}
		k++
	}
	if AssignableSlot(book, k) != -1 {
		t.Fatal("out-of-range index should return -1")
	}
}

// --- power controller ---

func TestPowerControllerAssociationRule(t *testing.T) {
	pc := NewPowerController()
	// Weak downlink: start at maximum gain.
	if g := pc.AssociateGainDB(-45); g != 0 {
		t.Fatalf("weak device gain %v, want 0", g)
	}
	pc = NewPowerController()
	// Strong downlink: start mid-ladder with headroom both ways.
	if g := pc.AssociateGainDB(-20); g != -4 {
		t.Fatalf("strong device gain %v, want -4", g)
	}
}

func TestPowerControllerReciprocity(t *testing.T) {
	pc := NewPowerController()
	pc.AssociateGainDB(-20) // baseline, gain -4
	// Channel improves by 6 dB -> back off toward -10.
	g, ok := pc.Adjust(-14)
	if !ok || g != -10 {
		t.Fatalf("improved channel: gain %v ok %v", g, ok)
	}
	// Channel degrades by 4 dB -> step up toward 0.
	g, ok = pc.Adjust(-24)
	if !ok || g != 0 {
		t.Fatalf("degraded channel: gain %v ok %v", g, ok)
	}
}

func TestPowerControllerSkipsAndReassociates(t *testing.T) {
	pc := NewPowerController()
	pc.AssociateGainDB(-20)
	// A 20 dB improvement is beyond the ladder: sit out.
	for i := 0; i < 3; i++ {
		if _, ok := pc.Adjust(0); ok {
			t.Fatal("should skip the round")
		}
	}
	if !pc.NeedsReassociation() {
		t.Fatal("three skips should trigger re-association (paper: more than twice)")
	}
	pc.Reset()
	if pc.NeedsReassociation() {
		t.Fatal("reset did not clear state")
	}
}

// --- AP / device state machines ---

func TestAssociationFlow(t *testing.T) {
	book := testBook(t)
	ap := NewAP(book)
	dev := NewDevice(book)

	q1 := ap.NextQuery()
	act := dev.OnQuery(q1, -40)
	if !act.AssocRequest || !act.Transmit {
		t.Fatalf("expected association request, got %+v", act)
	}
	hi, lo := book.AssociationSlots()
	if act.Shift != book.ShiftOfSlot(hi) && act.Shift != book.ShiftOfSlot(lo) {
		t.Fatalf("request not on an association shift: %d", act.Shift)
	}

	assign, err := ap.OnAssociationRequest(5)
	if err != nil {
		t.Fatal(err)
	}
	q2 := ap.NextQuery()
	if q2.Assign == nil || q2.Assign.NetworkID != assign.NetworkID {
		t.Fatal("assignment not piggybacked")
	}

	act = dev.OnQuery(q2, -40)
	if !act.AssocAck {
		t.Fatalf("expected ACK, got %+v", act)
	}
	if dev.state != StateAssociated {
		t.Fatal("device not associated")
	}
	ap.OnAssociationAck(dev.NetworkID())
	if ap.Devices() != 1 {
		t.Fatalf("AP device count %d", ap.Devices())
	}
	if ap.pending != nil {
		t.Fatal("pending assignment not cleared after ACK")
	}

	// Steady state: data rounds on the assigned shift.
	act = dev.OnQuery(ap.NextQuery(), -40)
	if act.AssocRequest || act.AssocAck || !act.Transmit {
		t.Fatalf("expected data transmission, got %+v", act)
	}
	if act.Shift != book.ShiftOfSlot(dev.Slot()) {
		t.Fatal("data on wrong shift")
	}
}

func TestAssociationRepeatsUntilAck(t *testing.T) {
	book := testBook(t)
	ap := NewAP(book)
	if _, err := ap.OnAssociationRequest(3); err != nil {
		t.Fatal(err)
	}
	// Without an ACK, the assignment rides every query (§3.3.4).
	for i := 0; i < 3; i++ {
		if q := ap.NextQuery(); q.Assign == nil {
			t.Fatal("assignment dropped before ACK")
		}
	}
}

func TestAssociationOneAtATime(t *testing.T) {
	book := testBook(t)
	ap := NewAP(book)
	if _, err := ap.OnAssociationRequest(3); err != nil {
		t.Fatal(err)
	}
	if _, err := ap.OnAssociationRequest(4); err == nil {
		t.Fatal("second in-flight association accepted")
	}
}

func TestShuffleUpdatesDeviceSlots(t *testing.T) {
	book := testBook(t)
	ap := NewAP(book)
	// Associate three devices at descending SNR.
	devs := make([]*Device, 3)
	for i := range devs {
		devs[i] = NewDevice(book)
		act := devs[i].OnQuery(ap.NextQuery(), -40)
		if !act.AssocRequest {
			t.Fatal("no request")
		}
		if _, err := ap.OnAssociationRequest(float64(20 - 5*i)); err != nil {
			t.Fatal(err)
		}
		act = devs[i].OnQuery(ap.NextQuery(), -40)
		if !act.AssocAck {
			t.Fatal("no ack")
		}
		ap.OnAssociationAck(devs[i].NetworkID())
	}
	// Force a shuffle and deliver it; devices must land on the AP's
	// view of their slots.
	reshuffle(ap)
	q := ap.NextQuery()
	if q.Shuffle == nil {
		t.Fatal("shuffle missing")
	}
	// Round-trip the query through its wire encoding too.
	decoded, err := DecodeBits(q.EncodeBits())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		d.OnQuery(decoded, -40)
		rec, ok := ap.Record(d.NetworkID())
		if !ok {
			t.Fatal("missing AP record")
		}
		if d.Slot() != rec.Slot {
			t.Fatalf("device %d at slot %d, AP thinks %d", d.NetworkID(), d.Slot(), rec.Slot)
		}
	}
}

func TestAPUpdateSNRAndLost(t *testing.T) {
	book := testBook(t)
	ap := NewAP(book)
	assign, err := ap.OnAssociationRequest(8)
	if err != nil {
		t.Fatal(err)
	}
	ap.OnAssociationAck(assign.NetworkID)
	ap.UpdateSNR(assign.NetworkID, 12)
	rec, _ := ap.Record(assign.NetworkID)
	if rec.SNRdB != 12 {
		t.Fatalf("SNR not updated: %v", rec.SNRdB)
	}
	ap.OnDeviceLost(assign.NetworkID)
	if _, ok := ap.Record(assign.NetworkID); ok {
		t.Fatal("record not removed")
	}
	if ap.Devices() != 0 {
		t.Fatal("device count not decremented")
	}
}

func TestNormalizePerm(t *testing.T) {
	got := normalizePerm([]int{40, 10, 30})
	if !reflect.DeepEqual(got, []int{2, 0, 1}) {
		t.Fatalf("normalizePerm = %v", got)
	}
	// Property: output is always a permutation of 0..n-1.
	f := func(raw []int16) bool {
		vals := make([]int, 0, len(raw))
		seen := map[int]bool{}
		for _, v := range raw {
			if !seen[int(v)] {
				vals = append(vals, int(v))
				seen[int(v)] = true
			}
		}
		out := normalizePerm(vals)
		sorted := append([]int(nil), out...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDataOnlyAllocatorFullCapacity(t *testing.T) {
	book := testBook(t)
	a := NewDataOnlyAllocator(book)
	if n := a.book.Slots() - len(a.reserved); n != 256 {
		t.Fatalf("data-only capacity = %d, want 256", n)
	}
	n := 256
	ids := make([]uint8, n)
	snrs := make([]float64, n)
	for i := range ids {
		ids[i] = uint8(i)
		snrs[i] = float64(i % 40)
	}
	if got := len(a.AssignAll(ids, snrs)); got != 256 {
		t.Fatalf("assigned %d of 256", got)
	}
}

func TestMaxInsertGapConstant(t *testing.T) {
	if MaxInsertGapDB < 5 || MaxInsertGapDB > 35 {
		t.Fatalf("MaxInsertGapDB = %v outside the sane band", float64(MaxInsertGapDB))
	}
	_ = math.Pi // keep math import if assertions change
}

// TestReshuffleTiedSNRsDeterministic pins the re-association order: with
// every device at the same SNR, AssignAll's stable sort keeps its input
// order, so repeated reshuffles must hand out the same slots every time
// — ascending ids in ascending slots — whatever order the AP's records
// map iterates in.
func TestReshuffleTiedSNRsDeterministic(t *testing.T) {
	book := testBook(t)
	ap := NewAP(book)
	const n = 24
	for id := uint8(0); id < n; id++ {
		// Adopt in a scrambled slot order, all at one SNR.
		if err := ap.AdoptAssignment(id, AssignableSlot(book, int(id*7%n)), 3); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 50; rep++ {
		reshuffle(ap)
		prev := -1
		for id := uint8(0); id < n; id++ {
			r, ok := ap.Record(id)
			if !ok {
				t.Fatalf("device %d lost", id)
			}
			if r.Slot <= prev {
				t.Fatalf("reshuffle %d: device %d got slot %d after slot %d; tied SNRs must keep id order", rep, id, r.Slot, prev)
			}
			prev = r.Slot
		}
	}
}

// reshuffle forces the full reassignment OnAssociationRequest makes when
// an insert does not fit: every associated device re-placed by SNR, the
// new slots riding on the next query as a permutation.
func reshuffle(ap *AP) {
	ids, snrs := ap.allIDsSNRs()
	for devID, s := range ap.alloc.AssignAll(ids, snrs) {
		ap.records[devID].Slot = s
	}
	ap.shuffled = true
}
