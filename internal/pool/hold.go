package pool

import (
	"runtime"
	"sync/atomic"
	"time"
)

// pollYield is how many polls a polling helper or caller makes between
// yields of its P. Yielding lets a goroutine queued behind a poller run;
// yielding on every poll would put the poller behind the scheduler's
// queues at each hand-off.
const pollYield = 1024

// lingerNanos is how long helpers keep polling after the last hold is
// released. Back-to-back rounds release and retake the hold within
// microseconds; a helper that parked in that gap would be woken on
// another P, and the runtime's per-P caches of wait records drift apart
// until they allocate (the GOMAXPROCS-2 round gates in internal/sim
// fail without a linger and pass at 50 µs on a 2-vCPU Xeon). 250 µs
// leaves room for slower hosts and bounds the polling after a caller's
// last round.
const lingerNanos = int64(250 * time.Microsecond)

var (
	// holds counts the holds in force.
	holds atomic.Int64
	// lastRelease is when the last hold was released, in nanoseconds
	// since epoch; 0 until a hold has been released.
	lastRelease atomic.Int64
	epoch       = time.Now()

	// pollers counts the helpers polling the queue, at most
	// pollerLimit(); idle counts those of them not yet taking a job, the
	// figure a hand-off reads to decide whether to wake a parked helper.
	pollers atomic.Int64
	idle    atomic.Int64

	// polledJobs counts the jobs helpers took while polling: hand-offs
	// that paid no wake.
	polledJobs atomic.Int64
)

// Hold marks the caller's round as in progress until the matching
// Release: meanwhile helpers poll for jobs between fan-outs instead of
// parking, and callers waiting only on running helpers poll for them.
// Holds nest and may be taken on any goroutine; helpers park again
// lingerNanos after the last release. Every Hold must be released,
// also when the round panics: take it with defer Release().
func Hold() { holds.Add(1) }

// Release ends a Hold.
func Release() {
	n := holds.Add(-1)
	if n < 0 {
		holds.Add(1)
		panic("pool: Release without Hold")
	}
	if n == 0 {
		lastRelease.Store(int64(time.Since(epoch)))
	}
}

// pollDue reports whether a helper with nothing to do should poll: while
// a hold is in force, and for lingerNanos after the last release.
func pollDue() bool {
	if holds.Load() > 0 {
		return true
	}
	last := lastRelease.Load()
	return last != 0 && int64(time.Since(epoch))-last < lingerNanos
}

// pollerLimit is how many helpers may poll at once: one fewer than the
// CPUs the process can run on, so the polling never takes the last CPU
// from the callers, and none on a one-CPU machine.
func pollerLimit() int64 { return int64(min(Size(), runtime.NumCPU()) - 1) }

func acquirePoller() bool {
	limit := pollerLimit()
	for {
		cur := pollers.Load()
		if cur >= limit {
			return false
		}
		if pollers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// take returns the next queued job for a helper — at once if one is
// queued, after polling for one if polling is due and a polling slot is
// free — or nil when the helper should park.
func take() *job {
	select {
	case j := <-handoff:
		return j
	default:
	}
	if !pollDue() || !acquirePoller() {
		return nil
	}
	defer pollers.Add(-1)
	return poll()
}

// poll polls the queue until a job lands, yielding every pollYield
// polls, and gives up when polling is no longer due or more helpers
// poll than pollerLimit allows (GOMAXPROCS went down).
func poll() *job {
	idle.Add(1)
	for spin := 1; ; spin++ {
		select {
		case j := <-handoff:
			idle.Add(-1)
			polledJobs.Add(1)
			return j
		default:
		}
		if spin%pollYield != 0 {
			continue
		}
		runtime.Gosched()
		if pollDue() && pollers.Load() <= pollerLimit() {
			continue
		}
		idle.Add(-1)
		// A hand-off that counted this helper as polling woke no one:
		// look at the queue once more before parking.
		select {
		case j := <-handoff:
			return j
		default:
			return nil
		}
	}
}
