// Package pool is the repository's shared bounded worker pool: a
// parallel-for over an index space, capped at GOMAXPROCS goroutines.
// The decode pipeline fans symbol spectra across it, the channel
// simulator fans template synthesis and receive-buffer tiles through
// it, and the figure experiments run independent rounds on it — one
// concurrency primitive instead of ad-hoc goroutine spawns in every
// layer.
//
// Work items must be independent; the pool makes no ordering guarantee
// beyond "ForEach returns after every fn call has returned". Callers
// that need determinism index results by the *item* (per-index slots,
// tile-indexed rng streams — see air's tiled receive), never by the
// worker, so output is identical at any pool width.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size returns the pool's parallelism bound: GOMAXPROCS at call time.
func Size() int { return runtime.GOMAXPROCS(0) }

// inflight bounds the extra goroutines the pool may have running across
// every caller, so nested parallel-fors (a parallel decode inside a
// parallel experiment sweep) share one machine-wide budget instead of
// multiplying. The limit is re-read from GOMAXPROCS on every acquire,
// so runtime.GOMAXPROCS changes (e.g. `go test -cpu 1,4`) take effect
// immediately. Callers always run work inline themselves, so forward
// progress never depends on acquiring a token.
var inflight atomic.Int64

func acquireToken() bool {
	limit := int64(Size() - 1)
	for {
		cur := inflight.Load()
		if cur >= limit {
			return false
		}
		if inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func releaseToken() { inflight.Add(-1) }

// job is one parallel-for call's shared state: the item counter, the
// next helper worker id, the body, the WaitGroup the caller waits on,
// and the first panic any worker recovered. Jobs are recycled through
// freeJobs, so a call allocates nothing in steady state.
type job struct {
	n    int
	next atomic.Int64 // next item index to claim
	ids  atomic.Int64 // last helper worker id handed out
	fn   func(i int)
	fnw  func(worker, i int)
	wg   sync.WaitGroup

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// freeJobs holds idle jobs. Its capacity bounds how many idle jobs are
// kept, not how many calls may run: a call finding it empty allocates a
// job, and a job finding it full is dropped. 64 covers the calls the
// repository nests or runs side by side (a sweep of parallel rounds,
// each fanning out its channel and decoders) at any GOMAXPROCS it runs
// at. Unlike a sync.Pool, a channel is not emptied by garbage
// collection nor thinned by the race detector, so steady state stays
// allocation-free in every build.
var freeJobs = make(chan *job, 64)

func getJob() *job {
	select {
	case j := <-freeJobs:
		return j
	default:
		return new(job)
	}
}

func putJob(j *job) {
	j.fn, j.fnw = nil, nil
	j.panicked, j.panicVal = false, nil
	j.next.Store(0)
	j.ids.Store(0)
	select {
	case freeJobs <- j:
	default:
	}
}

// handoff carries a job to each helper goroutine. Helpers are started
// with a no-argument go statement — a go statement with arguments, or
// a capturing closure, heap-allocates — and each one receives exactly
// one job. Every send is preceded by the start of its receiver, so a
// send never blocks for long; the buffer (one slot per CPU, the most
// helpers the token budget lets run at once on a full-width pool) only
// spares the caller a rendezvous with a helper the scheduler has not
// run yet.
var handoff = make(chan *job, runtime.NumCPU())

// helper runs one job's items as the next free worker id, then signals
// the job's WaitGroup. It must not touch the job after Done: the caller
// recycles it once every helper is done.
func helper() {
	j := <-handoff
	j.runGuarded(int(j.ids.Add(1)))
	releaseToken()
	j.wg.Done()
}

// runGuarded is run with panics recovered into the job: the first is
// kept for fanOut to re-raise on the calling goroutine, where the
// caller can recover it, instead of killing the process from a helper
// goroutine nothing can recover on. The worker then carries on with
// the next item, so every other item still runs.
func (j *job) runGuarded(w int) {
	for j.runUntilPanic(w) {
	}
}

// runUntilPanic runs items as worker w until none remain (false) or one
// panics (true), keeping the job's first panic.
func (j *job) runUntilPanic(w int) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if !j.panicked {
				j.panicked, j.panicVal = true, r
			}
			j.panicMu.Unlock()
			panicked = true
		}
	}()
	j.run(w)
	return false
}

// run claims and executes items until none remain.
func (j *job) run(w int) {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		if j.fn != nil {
			j.fn(i)
		} else {
			j.fnw(w, i)
		}
	}
}

// fanOut runs j's items on the caller as worker 0 plus up to
// workers−1 helpers the global budget allows, and returns once every
// item has run. The remaining worker ids simply never run. A panic in
// any item, the caller's own included, is re-raised on the caller once
// every helper has finished; with several, the first recovered wins.
func fanOut(j *job, workers int) {
	for w := 1; w < workers; w++ {
		if !acquireToken() {
			break
		}
		j.wg.Add(1)
		go helper()
		handoff <- j
	}
	// The caller participates as worker 0 rather than blocking idle.
	j.runGuarded(0)
	j.wg.Wait()
	panicked, val := j.panicked, j.panicVal
	putJob(j)
	if panicked {
		panic(val)
	}
}

// ForEach invokes fn(i) for every i in [0, n), using up to Size()
// goroutines. With a single-slot pool (or a single item) it runs inline
// on the calling goroutine, spawning nothing. If fn panics, ForEach
// panics with the same value on the calling goroutine: inline at once,
// fanned out once every other item has run. It shares ForEachWorker's
// body through the job rather than wrapping fn in an adapter closure:
// hot callers (the channel simulator, the parallel decoder) pass
// persistent funcs, and the adapter would put one heap allocation back
// on every call.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(Size(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := getJob()
	j.n, j.fn = n, fn
	fanOut(j, workers)
}

// ForEachWorker invokes fn(w, i) for every i in [0, n), where w
// identifies the executing worker (0 <= w < workers). Callers use w to
// index per-worker scratch state — each worker id runs on exactly one
// goroutine at a time, so scratch needs no locking. workers caps the
// goroutine count (values < 1 mean Size()); under global budget
// pressure fewer ids may actually run, never more. Panics reach the
// caller as ForEach's do.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = Size()
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	j := getJob()
	j.n, j.fnw = n, fn
	fanOut(j, workers)
}
