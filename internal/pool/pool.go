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
// first time the tokens held at once outnumber the helpers, so there are
// never more helpers than tokens ever held at once (GOMAXPROCS−1 at the
// widest the process has run). A fan-out therefore starts no goroutine
// in steady state: the runtime's goroutine descriptor, which a fresh go
// statement allocates whenever the caller's P has none free, stays off
// the per-round path.
//
// Park or poll. A fan-out queues its job once per token it holds. A
// helper with no job parks and costs nothing, but a parked helper starts
// a job only once the runtime has woken an idle CPU for it, tens of
// microseconds after the hand-off on a small virtual machine, and a
// round pays that at every fan-out. So a round of several fan-outs takes
// a Hold for its length. While any hold is in force, a helper that
// finishes a job polls the queue for the next instead of parking, and a
// caller whose helpers have all picked its job up polls for them to
// finish instead of parking. Once the last hold is released, helpers
// poll on for a short linger and then park again. At most
// min(GOMAXPROCS, NumCPU)−1 helpers poll at once, none on a one-CPU
// machine. Callers that take no hold, such as the service's one-tile
// rounds run side by side, find their helpers parked between jobs.
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
// body, the hand-off accounting the caller waits on, and the first
// panic any worker recovered. Jobs are recycled through freeJobs, so a
// call allocates nothing in steady state.
type job struct {
	n    int
	next atomic.Int64 // next item index to claim
	fn   func(i int)

	// taken counts the helpers that have picked the job up. left counts
	// the helpers handed the job that have not finished with it, less
	// one once the caller waits: whoever brings it to −1 is the last,
	// and a helper that does so wakes the caller through wake.
	taken atomic.Int32
	left  atomic.Int32
	wake  chan struct{}

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
		return &job{wake: make(chan struct{}, 1)}
	}
}

func putJob(j *job) {
	j.fn = nil
	j.panicked, j.panicVal = false, nil
	j.next.Store(0)
	j.taken.Store(0)
	j.left.Store(0)
	select {
	case freeJobs <- j:
	default:
	}
}

// handoff queues jobs for helpers, one entry per token a fan-out holds.
// Helpers only ever take from it without blocking: a polling helper
// takes a job the moment it lands, and a parked helper is woken through
// wakeup to take it. Every hand-off is preceded by startHelpers, which
// leaves at least as many helpers as tokens held, and a helper holds a
// token only until it has run a job and signalled its caller, so a
// queued job is always taken. The buffer is larger than any token
// budget the repository runs at; a full one only makes the sender wait
// for a helper to take a job.
var handoff = make(chan *job, 256)

// wakeup parks the helpers that are not polling: a hand-off that finds
// fewer helpers polling than it has queued jobs sends one token, and a
// parked helper that receives it takes what the queue holds. A token
// that finds the buffer full is dropped: as many helpers are already
// due to wake and look at the queue.
var wakeup = make(chan struct{}, runtime.NumCPU())

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

// handOff queues j for a helper and, unless enough helpers are polling
// to take the queued jobs, wakes a parked one. queued counts the jobs
// this fan-out has queued so far, this one included.
func handOff(j *job, queued int) {
	startHelpers()
	j.left.Add(1)
	handoff <- j
	if idle.Load() < int64(queued) {
		select {
		case wakeup <- struct{}{}:
		default:
		}
	}
}

// helper runs jobs for the life of the process: it runs each one's
// items until none remain, signals the caller, releases the token the
// caller took for it and looks for the next job — polling the queue
// while a hold is in force, parked on wakeup otherwise. Signalling comes
// first: while this helper still holds the token no other fan-out can
// queue a job it is not yet looking for. It must not touch a job after
// signalling: the caller recycles it once every helper is done.
func helper() {
	for {
		j := take()
		if j == nil {
			<-wakeup
			continue
		}
		j.taken.Add(1)
		j.runGuarded()
		j.helperDone()
		releaseToken()
	}
}

// helperDone signals that a helper has finished with j, waking the
// caller if it is already parked waiting for the last helper.
func (j *job) helperDone() {
	if j.left.Add(-1) == -1 {
		j.wake <- struct{}{}
	}
}

// wait returns once every helper handed j has finished with it. Under a
// hold a caller whose helpers have all picked the job up polls for them
// to finish, yielding now and then, instead of parking: they are
// running, so they finish within an item's time, and a parked caller
// would wait for its own wake besides. A caller whose job still sits in
// the queue, or that runs with no hold in force, parks until the last
// helper wakes it.
func (j *job) wait(handed int32) {
	if holds.Load() > 0 {
		for spin := 1; j.left.Load() > 0 && j.taken.Load() == handed; spin++ {
			if spin%pollYield == 0 {
				runtime.Gosched()
			}
		}
	}
	if j.left.Add(-1) != -1 {
		<-j.wake
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
	var handed int32
	for w := 1; w < workers; w++ {
		if !acquireToken() {
			break
		}
		handed++
		handOff(j, int(handed))
	}
	// The caller runs items too rather than blocking idle.
	j.runGuarded()
	if handed > 0 {
		j.wait(handed)
	}
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
