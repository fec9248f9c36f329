package pool

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
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
	fn2 := func(i int) { sink[i].Add(int64(i)) }
	call := func() {
		ForEach(len(sink), fn)
		ForEach(len(sink), fn2)
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
		t.Fatalf("fan-out allocates %.2f objects per pair of ForEach calls, want 0", perCall)
	}
}

// TestForEachPanicReachesCaller runs fan-outs at GOMAXPROCS 2 in which
// one item panics — on a helper or on the caller's own share — and
// checks that the panic reaches the calling goroutine with its value
// while every other item still ran; and that with several panicking
// items exactly one value comes back.
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
		var ran [n]atomic.Int64
		got := catch(func() {
			ForEach(n, func(i int) {
				if i == bad {
					panic(boom{i})
				}
				ran[i].Add(1)
			})
		})
		if got != (boom{bad}) {
			t.Fatalf("bad item %d: recovered %v, want boom{%d}", bad, got, bad)
		}
		for i := range ran {
			if want := int64(1); i != bad && ran[i].Load() != want {
				t.Fatalf("bad item %d: item %d ran %d times", bad, i, ran[i].Load())
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
// first item a helper (any goroutine but the caller's) runs panics, and
// the caller's items wait until that has happened, so whichever
// goroutine claims which item, the panic is a helper's and the other
// item still runs. At a parent without recovery the helper's panic
// kills the test binary.
func TestForEachPanicOnHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	helperPanicked := make(chan struct{})
	var first atomic.Bool
	var ran atomic.Int64
	caller := goid()
	got := func() (v any) {
		defer func() { v = recover() }()
		ForEach(2, func(i int) {
			onCaller := goid() == caller
			if !onCaller && first.CompareAndSwap(false, true) {
				close(helperPanicked)
				panic("helper item")
			}
			if onCaller {
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

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine N [...]"), so a test can tell which goroutine ran an item.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		panic("pool test: unreadable goroutine header " + f[1])
	}
	return id
}

// barrier lets parties wait until all of them have arrived, giving up
// after ten seconds so a fan-out that never starts fails the test
// instead of hanging it.
type barrier struct {
	arrived atomic.Int32
	all     chan struct{}
	parties int32
}

func newBarrier(parties int) *barrier {
	return &barrier{all: make(chan struct{}), parties: int32(parties)}
}

func (b *barrier) wait() bool {
	if b.arrived.Add(1) == b.parties {
		close(b.all)
	}
	select {
	case <-b.all:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// nestedCalls runs, from inside an outer item, an inner ForEach of m
// items, and checks that every inner index ran exactly once. With
// fanOut false it checks that the call ran inline, every item on the
// calling goroutine. With fanOut true it checks that its first procs
// items ran at once on procs goroutines.
func nestedCalls(t *testing.T, procs, m int, fanOut bool) {
	caller := goid()
	counts := make([]atomic.Int32, m)
	var offCaller atomic.Int32
	start := newBarrier(procs)
	ForEach(m, func(i int) {
		counts[i].Add(1)
		if goid() != caller {
			offCaller.Add(1)
		}
		if fanOut && i < procs && !start.wait() {
			t.Errorf("procs=%d: inner ForEach item %d waited in vain for %d items to run at once", procs, i, procs)
		}
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Errorf("procs=%d: inner ForEach ran index %d %d times", procs, i, got)
		}
	}
	if !fanOut && offCaller.Load() != 0 {
		t.Errorf("procs=%d: %d inner ForEach items ran off the calling goroutine with the budget spent", procs, offCaller.Load())
	}
}

// TestNestedForEachSharesTokenBudget pins how nested calls share the
// token budget, at GOMAXPROCS 2 and 4. With the budget spent — an outer
// ForEach holding every token, its items all running at once — each
// item's inner ForEach runs inline on the item's goroutine. With a
// token free — the outer helpers done and their tokens released while
// an item on the caller's goroutine still runs — the inner call fans
// out. Either way every inner index runs exactly once.
func TestNestedForEachSharesTokenBudget(t *testing.T) {
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const m = 32

			// Budget spent: procs outer items, all running at once, hold
			// the procs−1 tokens until every item's inner call is done.
			started, done := newBarrier(procs), newBarrier(procs)
			ForEach(procs, func(int) {
				if !started.wait() {
					t.Errorf("outer items never ran %d at once", procs)
				}
				if int(inflight.Load()) != procs-1 {
					t.Errorf("outer fan-out holds %d tokens, want %d", inflight.Load(), procs-1)
				}
				nestedCalls(t, procs, m, false)
				done.wait()
			})

			// Token free: the outer helper claims nothing or finishes at
			// once, and the first item on the caller's goroutine waits
			// for the tokens to come back before calling in.
			caller := goid()
			var once atomic.Bool
			ForEach(2, func(int) {
				if goid() != caller || !once.CompareAndSwap(false, true) {
					return
				}
				deadline := time.Now().Add(10 * time.Second)
				for inflight.Load() != 0 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				nestedCalls(t, procs, m, true)
			})
		})
	}
}
