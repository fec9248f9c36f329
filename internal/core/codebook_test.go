package core

import (
	"testing"
	"testing/quick"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

func testBook(t *testing.T, sf, skip int) *CodeBook {
	t.Helper()
	book, err := NewCodeBook(chirp.Params{SF: sf, BW: 500e3, Oversample: 1}, skip)
	if err != nil {
		t.Fatal(err)
	}
	return book
}

func TestCodeBookPaperCapacity(t *testing.T) {
	// SF 9 with SKIP 2 supports 256 concurrent shifts (§4.2).
	book := testBook(t, 9, 2)
	if book.Slots() != 256 {
		t.Fatalf("Slots() = %d, want 256", book.Slots())
	}
}

func TestCodeBookSlotShiftInverse(t *testing.T) {
	for _, skip := range []int{1, 2, 3, 4} {
		book, err := NewCodeBook(chirp.Params{SF: 8, BW: 500e3, Oversample: 1}, skip)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for slot := 0; slot < book.Slots(); slot++ {
			shift := book.ShiftOfSlot(slot)
			if seen[shift] {
				t.Fatalf("skip=%d duplicate shift %d", skip, shift)
			}
			seen[shift] = true
			got, ok := book.SlotOfShift(shift)
			if !ok || got != slot {
				t.Fatalf("skip=%d SlotOfShift(%d) = %d,%v want %d", skip, shift, got, ok, slot)
			}
		}
		// The guard invariant: every pair of assigned shifts is at
		// least SKIP bins apart on the circular spectrum.
		n := book.Params().N()
		shifts := book.AllShifts()
		for i, a := range shifts {
			for _, b := range shifts[i+1:] {
				if d := dsp.CircularDistance(a, b, n); d < skip {
					t.Fatalf("skip=%d shifts %d,%d only %d bins apart", skip, a, b, d)
				}
			}
		}
	}
}

func TestCodeBookSlotDistanceMonotonic(t *testing.T) {
	// Higher slot index must never be closer to slot 0 than a lower
	// one — the property the power-aware allocator relies on.
	book := testBook(t, 9, 2)
	prev := -1
	for slot := 0; slot < book.Slots(); slot++ {
		d := binDistance(book, 0, slot)
		if d < prev {
			t.Fatalf("slot %d distance %d < previous %d", slot, d, prev)
		}
		prev = d
	}
	// The farthest slot sits near the spectrum middle.
	far := binDistance(book, 0, book.Slots()-1)
	if far < book.Params().N()/2-book.Skip() {
		t.Fatalf("farthest slot only %d bins away", far)
	}
}

func TestCodeBookAdjacentSlotsNearby(t *testing.T) {
	// The zig-zag ordering alternates sides of the anchor, so slots i
	// and i+2 sit on the same side exactly SKIP apart, and slots i and
	// i+1 are at most ~2·SKIP apart in circular distance — devices with
	// similar SNR end up physically near each other as §3.2.3 requires.
	book := testBook(t, 9, 2)
	for slot := 2; slot < book.Slots(); slot++ {
		d := binDistance(book, slot-2, slot)
		if d > 2*book.Skip() {
			t.Fatalf("slots %d,%d are %d bins apart", slot-2, slot, d)
		}
	}
}

func TestCodeBookSlotOfShiftRejectsNonSlots(t *testing.T) {
	book := testBook(t, 9, 2)
	if _, ok := book.SlotOfShift(3); ok {
		t.Error("odd shift accepted with SKIP=2")
	}
}

func TestCodeBookQuickInverse(t *testing.T) {
	book := testBook(t, 9, 2)
	f := func(raw int) bool {
		slot := ((raw % book.Slots()) + book.Slots()) % book.Slots()
		got, ok := book.SlotOfShift(book.ShiftOfSlot(slot))
		return ok && got == slot
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodeBookAssociationSlots(t *testing.T) {
	book := testBook(t, 9, 2)
	hi, lo := book.AssociationSlots()
	if hi < 0 || hi >= book.Slots() || lo < 0 || lo >= book.Slots() || hi == lo {
		t.Fatalf("bad association slots %d, %d", hi, lo)
	}
	// High-SNR slot near the anchor, low-SNR slot far from it.
	if binDistance(book, 0, hi) >= binDistance(book, 0, lo) {
		t.Fatalf("high-SNR assoc slot farther than low-SNR slot")
	}
}

func TestNewCodeBookErrors(t *testing.T) {
	if _, err := NewCodeBook(chirp.Params{SF: 9, BW: 500e3}, 0); err == nil {
		t.Error("SKIP=0 accepted")
	}
	if _, err := NewCodeBook(chirp.Params{SF: 9, BW: 500e3}, 1024); err == nil {
		t.Error("huge SKIP accepted")
	}
	if _, err := NewCodeBook(chirp.Params{SF: 99, BW: 500e3}, 2); err == nil {
		t.Error("bad SF accepted")
	}
}

// binDistance is the circular bin distance between two slots' shifts.
func binDistance(book *CodeBook, slotA, slotB int) int {
	return dsp.CircularDistance(book.ShiftOfSlot(slotA), book.ShiftOfSlot(slotB), book.Params().N())
}

// SlotOfShift inverts ShiftOfSlot; ok is false if the shift is not an
// assignable slot.
func (c *CodeBook) SlotOfShift(shift int) (slot int, ok bool) {
	shift = dsp.WrapIndex(shift, c.params.N())
	slot, ok = c.slotOf[shift]
	return slot, ok
}
