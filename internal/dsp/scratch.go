package dsp

import (
	"fmt"
	"slices"
	"sync"
)

// Scratch lending. A receiver's per-call working memory — planar FFT
// tiles, preamble spectra rows, quantile buffers — is sized by the
// symbol and by how many decodes run at once, not by how many decoders
// exist. BorrowFloat64 lends such a buffer from one process-wide free
// list keyed by length, and ReturnFloat64 hands it back, so scratch
// memory grows with the calls in flight instead of with every decoder
// and worker that could ever run one.
//
// Borrower rules: a borrowed buffer's contents are unspecified (every
// element a call reads must first be written in that call); the buffer
// is returned whole, exactly the slice BorrowFloat64 gave out; and no
// view of it is kept after it is returned.
//
// The list is a mutex-guarded LIFO stack per length, so the most
// recently returned — cache-warm — buffer is lent next. It is not a
// sync.Pool: garbage collection empties a sync.Pool and the race
// detector drops a share of its puts, so steady state would allocate.
// After warm-up, borrowing and returning allocate nothing.

// scratchCap is how many idle buffers of one length the list keeps; a
// buffer returned to a full stack is dropped for the garbage collector.
// A stack only grows to the peak number of buffers of its length on
// loan at once — at most the calls in flight, GOMAXPROCS pool workers
// plus their callers — so the cap only matters past 64 concurrent
// borrowers, where it bounds what a burst leaves behind.
const scratchCap = 64

// scratchStack is the free list of one buffer length, with its loan
// counts for ScratchStats.
type scratchStack struct {
	free [][]float64
	lent int // buffers on loan now
	peak int // most buffers on loan at once
}

var (
	scratchMu   sync.Mutex
	scratchFree = map[int]*scratchStack{}
)

// BorrowFloat64 lends a scratch buffer of length n, allocating one when
// no buffer of that length is idle. Its contents are unspecified; give
// it back with ReturnFloat64.
func BorrowFloat64(n int) []float64 {
	if buf, ok := takeScratch(n); ok {
		return buf
	}
	return make([]float64, n)
}

// takeScratch records a loan of length n and pops the most recently
// returned idle buffer of that length, if any.
func takeScratch(n int) ([]float64, bool) {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	s := scratchFree[n]
	if s == nil {
		s = &scratchStack{free: make([][]float64, 0, scratchCap)}
		scratchFree[n] = s
	}
	s.lent++
	s.peak = max(s.peak, s.lent)
	k := len(s.free)
	if k == 0 {
		return nil, false
	}
	buf := s.free[k-1]
	s.free[k-1] = nil
	s.free = s.free[:k-1]
	return buf, true
}

// ReturnFloat64 hands back a buffer BorrowFloat64 lent. It panics when
// no buffer of that length is on loan — a double return, or a slice
// resized since it was borrowed.
func ReturnFloat64(buf []float64) {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	s := scratchFree[len(buf)]
	if s == nil || s.lent == 0 {
		panic(fmt.Sprintf("dsp: scratch buffer of length %d returned, but none is on loan", len(buf)))
	}
	s.lent--
	if len(s.free) < scratchCap {
		s.free = append(s.free, buf)
	}
}

// ScratchStat is the free list's state for one buffer length.
type ScratchStat struct {
	Len  int // buffer length in float64s
	Free int // idle buffers held
	Lent int // buffers on loan now
	Peak int // most buffers on loan at once since the process started
}

// ScratchStats reports the free list's state per buffer length, in
// ascending length order.
func ScratchStats() []ScratchStat {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	out := make([]ScratchStat, 0, len(scratchFree))
	for n, s := range scratchFree {
		out = append(out, ScratchStat{Len: n, Free: len(s.free), Lent: s.lent, Peak: s.peak})
	}
	slices.SortFunc(out, func(a, b ScratchStat) int { return a.Len - b.Len })
	return out
}
