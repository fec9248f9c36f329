package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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

// TestForEachPanicReachesCaller runs fan-outs at GOMAXPROCS 2 in which
// one item panics — on a helper or on the caller's own share — and
// checks that the panic reaches the calling goroutine with its value
// while every other item still ran, for ForEach and ForEachWorker; and
// that with several panicking items exactly one value comes back.
func TestForEachPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 64
	type boom struct{ item int }
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, bad := range []int{0, 1, n / 2, n - 1} {
		for _, worker := range []bool{false, true} {
			var ran [n]atomic.Int64
			body := func(i int) {
				if i == bad {
					panic(boom{i})
				}
				ran[i].Add(1)
			}
			got := catch(func() {
				if worker {
					ForEachWorker(2, n, func(_, i int) { body(i) })
				} else {
					ForEach(n, body)
				}
			})
			if got != (boom{bad}) {
				t.Fatalf("bad item %d (worker form %v): recovered %v, want boom{%d}", bad, worker, got, bad)
			}
			for i := range ran {
				if want := int64(1); i != bad && ran[i].Load() != want {
					t.Fatalf("bad item %d (worker form %v): item %d ran %d times", bad, worker, i, ran[i].Load())
				}
			}
		}
	}
	got := catch(func() {
		ForEach(n, func(i int) {
			if i%3 == 0 {
				panic(boom{i})
			}
		})
	})
	if b, ok := got.(boom); !ok || b.item%3 != 0 {
		t.Fatalf("several panicking items: recovered %v", got)
	}
	// The pool stays usable: the panicking job was recycled cleanly.
	var sum atomic.Int64
	ForEach(n, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != n*(n-1)/2 {
		t.Fatalf("fan-out after a panic summed %d", sum.Load())
	}
}

// TestForEachPanicOnHelper pins the panic to a helper goroutine: the
// first item a helper (worker id > 0) runs panics, and the caller's
// items (worker 0) wait until that has happened, so whichever worker
// claims which item, the panic is a helper's and the other item still
// runs. At a parent without recovery the helper's panic kills the test
// binary.
func TestForEachPanicOnHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	helperPanicked := make(chan struct{})
	var first atomic.Bool
	var ran atomic.Int64
	got := func() (v any) {
		defer func() { v = recover() }()
		ForEachWorker(2, 2, func(w, i int) {
			if w != 0 && first.CompareAndSwap(false, true) {
				close(helperPanicked)
				panic("helper item")
			}
			if w == 0 {
				select {
				case <-helperPanicked:
				case <-time.After(10 * time.Second):
					t.Error("no helper ran an item")
				}
			}
			ran.Add(1)
		})
		return nil
	}()
	if got != "helper item" {
		t.Fatalf("recovered %v, want the helper's panic", got)
	}
	if ran.Load() != 1 {
		t.Fatalf("%d items completed, want the one that did not panic", ran.Load())
	}
}
