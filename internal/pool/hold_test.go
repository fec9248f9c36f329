package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUnpolled waits until no helper polls, failing the test if one
// still does seconds after the last release: helpers must park once
// the linger after the last hold has passed.
func waitUnpolled(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pollers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still poll 5 s after the last release", pollers.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHoldKeepsHelperPollingParallel pins the hold's purpose at
// GOMAXPROCS 2: under a hold, back-to-back fan-outs reach a helper that
// is still polling instead of one that must be woken, and after the
// last release the helper stops polling and parks.
func TestHoldKeepsHelperPollingParallel(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("helpers never poll on a one-CPU machine")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	waitUnpolled(t)
	var sink [64]atomic.Int64
	fn := func(i int) { sink[i].Add(1) }

	// Without a hold, once the linger after the last release has passed,
	// the helper parks between jobs: nothing is polled.
	time.Sleep(2 * time.Duration(lingerNanos))
	before := polledJobs.Load()
	for range 50 {
		ForEach(len(sink), fn)
	}
	if polled := polledJobs.Load() - before; polled != 0 {
		t.Fatalf("with no hold, %d fan-outs reached a polling helper", polled)
	}

	Hold()
	ForEach(len(sink), fn) // wakes a helper, which then polls
	const calls = 200
	before = polledJobs.Load()
	for range calls {
		// The helper is back polling a few instructions after it gave
		// its token back; a fan-out in that gap would run inline.
		for deadline := time.Now().Add(5 * time.Second); idle.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("under a hold, no helper came back to poll")
			}
		}
		ForEach(len(sink), fn)
	}
	polled := polledJobs.Load() - before
	Release()
	if polled < calls*9/10 {
		t.Fatalf("under a hold, %d of %d back-to-back fan-outs reached a polling helper", polled, calls)
	}
	waitUnpolled(t)
}

// TestHoldPollersBoundedParallel: however many helpers exist, at most
// min(GOMAXPROCS, NumCPU)−1 poll at once — none on a one-CPU machine —
// checked from inside the items of held fan-outs wide enough to start a
// helper per token.
func TestHoldPollersBoundedParallel(t *testing.T) {
	for _, procs := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			limit := int64(min(procs, runtime.NumCPU()) - 1)
			var worst atomic.Int64
			sample := func() {
				if n := pollers.Load(); n > worst.Load() {
					worst.Store(n)
				}
			}
			Hold()
			for range 100 {
				ForEach(4*procs, func(int) {
					sample()
					spin(20 * time.Microsecond)
				})
				sample()
			}
			Release()
			if w := worst.Load(); w > limit {
				t.Fatalf("GOMAXPROCS %d on %d CPUs: %d helpers polled at once, want at most %d", procs, runtime.NumCPU(), w, limit)
			}
			waitUnpolled(t)
		})
	}
}

// spin busy-waits for d, standing in for an item's work.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestHoldNestedConcurrent runs nested holds on several goroutines at
// once, each holder fanning out items that take a hold of their own and
// fan out again, at GOMAXPROCS 2 and 4: every index runs exactly once,
// every hold is released, and the helpers park afterwards.
func TestHoldNestedConcurrent(t *testing.T) {
	for _, procs := range []int{2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const goroutines, outer, inner = 4, 8, 16
			var counts [goroutines][outer][inner]atomic.Int32
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range 20 {
						Hold()
						Hold()
						ForEach(outer, func(o int) {
							Hold()
							defer Release()
							ForEach(inner, func(i int) { counts[g][o][i].Add(1) })
						})
						Release()
						Release()
					}
				}()
			}
			wg.Wait()
			for g := range counts {
				for o := range counts[g] {
					for i := range counts[g][o] {
						if got := counts[g][o][i].Load(); got != 20 {
							t.Fatalf("goroutine %d item (%d, %d) ran %d times, want 20", g, o, i, got)
						}
					}
				}
			}
			if h := holds.Load(); h != 0 {
				t.Fatalf("%d holds left after every holder released", h)
			}
			waitUnpolled(t)
		})
	}
}

// TestHoldPanicReachesCaller: inside a held round, an item's panic — on
// a helper or on the caller's own share — still reaches the caller with
// its value, the round's deferred Release runs on the way out, and the
// pool goes on working with helpers parking after it.
func TestHoldPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 64
	type boom struct{ item int }
	round := func(bad int) (v any) {
		defer func() { v = recover() }()
		Hold()
		defer Release()
		ForEach(n, func(int) {}) // a fan-out before, as a round makes
		ForEach(n, func(i int) {
			if i == bad {
				panic(boom{i})
			}
		})
		return nil
	}
	for _, bad := range []int{0, n / 2, n - 1} {
		if got := round(bad); got != (boom{bad}) {
			t.Fatalf("bad item %d: recovered %v, want boom{%d}", bad, got, bad)
		}
		if h := holds.Load(); h != 0 {
			t.Fatalf("bad item %d: %d holds left after the panic", bad, h)
		}
	}
	var sum atomic.Int64
	ForEach(n, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != n*(n-1)/2 {
		t.Fatalf("fan-out after a held panic summed %d", sum.Load())
	}
	waitUnpolled(t)
}

// TestReleaseWithoutHoldPanics: an unmatched Release is a caller bug
// and panics rather than letting the count go negative.
func TestReleaseWithoutHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Hold did not panic")
		}
		if h := holds.Load(); h != 0 {
			t.Fatalf("an unmatched Release left the hold count at %d", h)
		}
	}()
	Release()
}
