package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		counts := make([]atomic.Int32, n)
		ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForEachWorkerIDsAreExclusive(t *testing.T) {
	// Each worker id must never run two items concurrently — that is the
	// contract that makes per-worker scratch safe.
	const workers, n = 4, 200
	busy := make([]atomic.Int32, workers)
	ForEachWorker(workers, n, func(w, _ int) {
		if busy[w].Add(1) != 1 {
			t.Errorf("worker %d ran concurrently with itself", w)
		}
		runtime.Gosched()
		busy[w].Add(-1)
	})
}

func TestForEachWorkerBoundsWorkerID(t *testing.T) {
	const workers, n = 3, 50
	var maxW atomic.Int32
	ForEachWorker(workers, n, func(w, _ int) {
		for {
			cur := maxW.Load()
			if int32(w) <= cur || maxW.CompareAndSwap(cur, int32(w)) {
				break
			}
		}
	})
	if got := maxW.Load(); got >= workers {
		t.Fatalf("worker id %d out of bounds", got)
	}
}

func TestForEachWorkerSerialFallback(t *testing.T) {
	// workers=1 must run inline: no goroutines means results are written
	// in index order.
	order := make([]int, 0, 10)
	ForEachWorker(1, 10, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial fallback used worker %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestSizePositive(t *testing.T) {
	if Size() < 1 {
		t.Fatalf("Size() = %d", Size())
	}
}

// TestFanOutZeroAllocParallel pins the fan-out's steady state at
// GOMAXPROCS 2, where helpers really start: the job is recycled and
// helpers are started without a closure, so a call allocates nothing.
// testing.AllocsPerRun forces GOMAXPROCS 1, which would only measure the
// inline path, so the test counts mallocs itself.
func TestFanOutZeroAllocParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var sink [64]atomic.Int64
	fn := func(i int) { sink[i].Add(1) }
	fnw := func(w, i int) { sink[i].Add(int64(w)) }
	call := func() {
		ForEach(len(sink), fn)
		ForEachWorker(2, len(sink), fnw)
	}
	// Warm up: the job pool and the runtime's free goroutine lists fill.
	for i := 0; i < 2000; i++ {
		call()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	// The runtime occasionally allocates a goroutine descriptor when its
	// per-P free lists run dry (a few per run at most); per-call state
	// would cost several objects on every call.
	if perCall := float64(after.Mallocs-before.Mallocs) / runs; perCall >= 0.1 {
		t.Fatalf("fan-out allocates %.2f objects per ForEach+ForEachWorker pair, want 0", perCall)
	}
}
