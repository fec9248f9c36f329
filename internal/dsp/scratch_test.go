package dsp

import (
	"sync"
	"testing"
)

// scratchStat returns the free list's state for length n (zero when the
// length was never borrowed). Each test uses lengths of its own, since
// the list is process-wide.
func scratchStat(n int) ScratchStat {
	for _, s := range ScratchStats() {
		if s.Len == n {
			return s
		}
	}
	return ScratchStat{Len: n}
}

// TestScratchLendsMostRecentFirst: a returned buffer is lent again, the
// most recently returned one first, and the loan counts follow.
func TestScratchLendsMostRecentFirst(t *testing.T) {
	const n = 1001
	a, b := BorrowFloat64(n), BorrowFloat64(n)
	if len(a) != n || len(b) != n || &a[0] == &b[0] {
		t.Fatal("two loans share a buffer or have the wrong length")
	}
	if s := scratchStat(n); s.Lent != 2 || s.Peak != 2 || s.Free != 0 {
		t.Fatalf("after two borrows: %+v", s)
	}
	ReturnFloat64(a)
	ReturnFloat64(b)
	if s := scratchStat(n); s.Lent != 0 || s.Free != 2 {
		t.Fatalf("after two returns: %+v", s)
	}
	c := BorrowFloat64(n)
	if &c[0] != &b[0] {
		t.Fatal("borrow did not lend the most recently returned buffer")
	}
	d := BorrowFloat64(n)
	if &d[0] != &a[0] {
		t.Fatal("second borrow did not lend the older buffer")
	}
	ReturnFloat64(d)
	ReturnFloat64(c)
	if s := scratchStat(n); s.Peak != 2 || s.Free != 2 {
		t.Fatalf("reuse allocated new buffers: %+v", s)
	}
}

// TestScratchDropsBeyondCap: a stack keeps at most scratchCap idle
// buffers; the rest of a burst goes to the garbage collector.
func TestScratchDropsBeyondCap(t *testing.T) {
	const n = 1003
	bufs := make([][]float64, scratchCap+5)
	for i := range bufs {
		bufs[i] = BorrowFloat64(n)
	}
	for _, b := range bufs {
		ReturnFloat64(b)
	}
	if s := scratchStat(n); s.Free != scratchCap || s.Lent != 0 || s.Peak != scratchCap+5 {
		t.Fatalf("after a burst of %d: %+v, want %d free", len(bufs), s, scratchCap)
	}
}

// TestScratchReturnUnlentPanics: returning a buffer of a length with
// nothing on loan is a double return or a resized slice — a bug.
func TestScratchReturnUnlentPanics(t *testing.T) {
	const n = 1005
	b := BorrowFloat64(n)
	ReturnFloat64(b)
	for name, buf := range map[string][]float64{"double return": b, "resized": b[:n-1]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			ReturnFloat64(buf)
		}()
	}
}

// TestScratchZeroAlloc: once a length has been lent, borrowing and
// returning it allocate nothing.
func TestScratchZeroAlloc(t *testing.T) {
	const n = 1007
	ReturnFloat64(BorrowFloat64(n))
	allocs := testing.AllocsPerRun(100, func() {
		b := BorrowFloat64(n)
		b[0] = 1
		ReturnFloat64(b)
	})
	if allocs != 0 {
		t.Fatalf("borrow+return allocates %v/op, want 0", allocs)
	}
}

// TestScratchConcurrentLoansDisjoint: goroutines borrowing at once never
// share a buffer, and the list keeps no more buffers than were on loan
// at the peak. Run under -race.
func TestScratchConcurrentLoansDisjoint(t *testing.T) {
	const n, goroutines, reps = 1009, 4, 200
	var wg sync.WaitGroup
	bad := make([]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				b := BorrowFloat64(n)
				for i := range b {
					b[i] = float64(g)
				}
				for _, v := range b {
					if v != float64(g) {
						bad[g] = true
					}
				}
				ReturnFloat64(b)
			}
		}()
	}
	wg.Wait()
	for g, b := range bad {
		if b {
			t.Errorf("goroutine %d saw its loan written by another", g)
		}
	}
	if s := scratchStat(n); s.Lent != 0 || s.Free > s.Peak || s.Peak > goroutines {
		t.Fatalf("after concurrent loans: %+v (goroutines %d)", s, goroutines)
	}
}
