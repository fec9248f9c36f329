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
// goroutine that ran it, so output is identical at any pool width.
//
// Calls nest: an item may itself call ForEach. Every call's extra
// workers draw on one process-wide token budget of GOMAXPROCS−1, so
// whichever call holds the tokens sets the level of parallelism. A
// multi-AP round fans out over its APs, and each AP item's inner
// fan-outs (tiles, noise groups, decode batches) take the tokens that
// remain and run inline when none do.
//
// Helpers persist. Each helper goroutine is started once, lazily, the
// first time the tokens held at once outnumber the helpers, and parks on
// a channel between jobs, so there are never more helpers than tokens
// ever held at once (GOMAXPROCS−1 at the widest the process has run). A
// fan-out therefore starts no goroutine in steady state: the runtime's
// goroutine descriptor, which a fresh go statement allocates whenever
// the caller's P has none free, stays off the per-round path.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Size returns the pool's parallelism bound: GOMAXPROCS at call time.
func Size() int { return runtime.GOMAXPROCS(0) }

// inflight counts the tokens held — one per job handed to a helper and
// not yet finished — across every caller, so nested parallel-fors (a
// parallel decode inside a parallel experiment sweep) share one
// machine-wide budget instead of multiplying. The limit is re-read
// from GOMAXPROCS on every acquire, so runtime.GOMAXPROCS changes (e.g.
// `go test -cpu 1,4`) take effect immediately. Callers always run work
// inline themselves, so forward progress never depends on acquiring a
// token.
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
// body, the WaitGroup the caller waits on, and the first panic any
// worker recovered. Jobs are recycled through freeJobs, so a call
// allocates nothing in steady state.
type job struct {
	n    int
	next atomic.Int64 // next item index to claim
	fn   func(i int)
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
	j.fn = nil
	j.panicked, j.panicVal = false, nil
	j.next.Store(0)
	select {
	case freeJobs <- j:
	default:
	}
}

// handoff carries a job to a parked helper, once per token a fan-out
// holds. Every send is preceded by startHelpers, which leaves at least
// as many helpers as tokens held, and a helper holds a token only until
// it has run a job and signalled its caller, so some helper is parked or
// on its way back to park for every job in flight and a send never
// blocks for long. The buffer
// (one slot per CPU, the most helpers the token budget lets run at once
// on a full-width pool) only spares the caller a rendezvous with a
// helper that has just finished its previous job.
var handoff = make(chan *job, runtime.NumCPU())

// helpers counts the helper goroutines started so far; none ever exits.
var helpers atomic.Int64

// startHelpers starts helpers until there are at least as many as the
// tokens held right now. Helpers are started with a no-argument go
// statement: one with arguments, or a capturing closure, heap-allocates.
func startHelpers() {
	held := inflight.Load()
	for {
		n := helpers.Load()
		if n >= held {
			return
		}
		if helpers.CompareAndSwap(n, n+1) {
			go helper()
		}
	}
}

// helper runs jobs for the life of the process: it runs each one's
// items until none remain, then it signals the job's WaitGroup,
// releases the token the job's caller took for it and parks for the
// next. Done comes first: it may wake the caller, which takes a while,
// and while this helper still holds the token no other fan-out can hand
// it a job it is not yet parked to take. It must not touch a job after
// Done: the caller recycles it once every helper is done.
func helper() {
	for j := range handoff {
		j.runGuarded()
		j.wg.Done()
		releaseToken()
	}
}

// runGuarded is run with panics recovered into the job: the first is
// kept for fanOut to re-raise on the calling goroutine, where the
// caller can recover it, instead of killing the process from a helper
// goroutine nothing can recover on. The worker then carries on with
// the next item, so every other item still runs.
func (j *job) runGuarded() {
	for j.runUntilPanic() {
	}
}

// runUntilPanic runs items until none remain (false) or one panics
// (true), keeping the job's first panic.
func (j *job) runUntilPanic() (panicked bool) {
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
	j.run()
	return false
}

// run claims and executes items until none remain.
func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
	}
}

// fanOut runs j's items on the caller plus up to workers−1 helpers the
// global budget allows, and returns once every item has run. A panic
// in any item, the caller's own included, is re-raised on the caller
// once every helper has finished; with several, the first recovered
// wins.
func fanOut(j *job, workers int) {
	for w := 1; w < workers; w++ {
		if !acquireToken() {
			break
		}
		startHelpers()
		j.wg.Add(1)
		handoff <- j
	}
	// The caller runs items too rather than blocking idle.
	j.runGuarded()
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
// fanned out once every other item has run. Hot callers (the channel
// simulator, the decoder) pass persistent funcs, so a call allocates
// nothing.
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
