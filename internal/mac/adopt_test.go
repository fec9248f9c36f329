package mac

import (
	"math"
	"testing"
)

// --- power controller state machine: table-driven sweep ---

// pcStep is one operation of a power-controller scenario with the
// expected observable state after it.
type pcStep struct {
	op       string // "assoc", "adjust", "reset"
	rssi     float64
	wantGain float64
	wantOK   bool // participate (adjust) — ignored for assoc/reset
	wantRe   bool // NeedsReassociation after the step
}

// TestPowerControllerStateMachine sweeps skip/ack sequences over the
// §3.2.3 controller: the `skipCount > 2` boundary (two skips hold, the
// third trips), the reset-on-ack path (a good round clears the streak),
// the reset-on-reassociate paths (Reset and a fresh AssociateGainDB
// both clear it), the slack edge at exactly SlackDB, and the
// unassociated controller (which sits out without ever counting toward
// re-association).
func TestPowerControllerStateMachine(t *testing.T) {
	// Ladder 0/-4/-10 dB; baseline -20 dBm assigns the mid gain -4.
	// Adjust(rssi): ideal = -4 - (rssi - (-20)); skip iff the nearest
	// level misses ideal by more than SlackDB = 3.
	cases := []struct {
		name  string
		steps []pcStep
	}{
		{"third skip trips, not the second", []pcStep{
			{op: "assoc", rssi: -20, wantGain: -4},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: true},
		}},
		{"good round resets the streak", []pcStep{
			{op: "assoc", rssi: -20, wantGain: -4},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: -20, wantGain: -4, wantOK: true}, // ack: streak cleared
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: true},
		}},
		{"Reset clears a tripped controller", []pcStep{
			{op: "assoc", rssi: -20, wantGain: -4},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: true},
			{op: "reset", wantRe: false},
		}},
		{"re-association clears a tripped controller", []pcStep{
			{op: "assoc", rssi: -20, wantGain: -4},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false},
			{op: "adjust", rssi: 0, wantGain: -10, wantOK: false, wantRe: true},
			{op: "assoc", rssi: -45, wantGain: 0, wantRe: false}, // weak now: max gain
			{op: "adjust", rssi: -45, wantGain: 0, wantOK: true, wantRe: false},
		}},
		{"slack edge: misfit of exactly SlackDB participates", []pcStep{
			{op: "assoc", rssi: -20, wantGain: -4},
			// ideal = -4 + 7 = 3: nearest level 0, error 3 = SlackDB.
			{op: "adjust", rssi: -27, wantGain: 0, wantOK: true, wantRe: false},
			// ideal = 4: error 4 > SlackDB — skip.
			{op: "adjust", rssi: -28, wantGain: 0, wantOK: false, wantRe: false},
		}},
		{"unassociated controller sits out without counting", []pcStep{
			{op: "adjust", rssi: -20, wantGain: 0, wantOK: false, wantRe: false},
			{op: "adjust", rssi: -20, wantGain: 0, wantOK: false, wantRe: false},
			{op: "adjust", rssi: -20, wantGain: 0, wantOK: false, wantRe: false},
			{op: "adjust", rssi: -20, wantGain: 0, wantOK: false, wantRe: false},
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pc := NewPowerController()
			for i, s := range c.steps {
				var gain float64
				var ok bool
				switch s.op {
				case "assoc":
					gain = pc.AssociateGainDB(s.rssi)
				case "adjust":
					gain, ok = pc.Adjust(s.rssi)
					if ok != s.wantOK {
						t.Fatalf("step %d: participate %v, want %v", i, ok, s.wantOK)
					}
				case "reset":
					pc.Reset()
					gain = s.wantGain
				}
				if math.Abs(gain-s.wantGain) > 1e-12 {
					t.Fatalf("step %d (%s): gain %v, want %v", i, s.op, gain, s.wantGain)
				}
				if re := pc.NeedsReassociation(); re != s.wantRe {
					t.Fatalf("step %d (%s): NeedsReassociation %v, want %v", i, s.op, re, s.wantRe)
				}
			}
		})
	}
}

// --- assignment adoption (trajectory warm-start) ---

func TestAllocatorAdopt(t *testing.T) {
	book := testBook(t)
	a := NewAllocator(book)
	hi, _ := book.AssociationSlots()

	free := AssignableSlot(book, 0)
	if err := a.Adopt(1, free, 10); err != nil {
		t.Fatalf("adopt free slot: %v", err)
	}
	if s, ok := a.slotOf[1]; !ok || s != free {
		t.Fatalf("slotOf[1] = %d, %v", s, ok)
	}
	if err := a.Adopt(2, free, 5); err == nil {
		t.Fatal("adopting a taken slot must fail")
	}
	if err := a.Adopt(1, AssignableSlot(book, 1), 5); err == nil {
		t.Fatal("adopting a second slot for the same id must fail")
	}
	if err := a.Adopt(3, hi, 5); err == nil {
		t.Fatal("adopting a reserved slot must fail")
	}
	if err := a.Adopt(3, book.Slots(), 5); err == nil {
		t.Fatal("adopting an out-of-range slot must fail")
	}
}

// TestAPAdoptAssignment: adoption warm-starts records as already-ACKed
// devices, advances the ID allocator past adopted IDs, and composes
// with the dynamic paths (OnDeviceLost frees the slot for a later
// adopt or insert).
func TestAPAdoptAssignment(t *testing.T) {
	book := testBook(t)
	ap := NewAPWith(book, NewDataOnlyAllocator(book))

	if err := ap.AdoptAssignment(3, 0, 20); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if err := ap.AdoptAssignment(3, 1, 20); err == nil {
		t.Fatal("double adoption of one id must fail")
	}
	r, ok := ap.Record(3)
	if !ok || !r.Acked || r.Slot != 0 {
		t.Fatalf("adopted record %+v, %v", r, ok)
	}
	if ap.Devices() != 1 {
		t.Fatalf("Devices() = %d, want 1", ap.Devices())
	}

	// A later dynamic association must not reissue the adopted ID.
	asg, err := ap.OnAssociationRequest(18)
	if err != nil {
		t.Fatalf("association after adopt: %v", err)
	}
	if asg.NetworkID == 3 {
		t.Fatal("dynamic association reissued an adopted network ID")
	}
	ap.OnAssociationAck(asg.NetworkID)

	// Losing the adopted device frees its slot for re-adoption.
	ap.OnDeviceLost(3)
	if _, ok := ap.Record(3); ok {
		t.Fatal("lost device still has a record")
	}
	if err := ap.AdoptAssignment(7, 0, 12); err != nil {
		t.Fatalf("re-adopt freed slot: %v", err)
	}
}
