package pool

// FairScheduler: the multi-tenant companion to ForEach. Where ForEach
// fans one caller's independent items across the machine, the
// FairScheduler multiplexes *many callers'* serial work streams over a
// fixed worker set — the shape netscatter-serve needs to host thousands
// of deployments whose rounds must each run single-threaded (a
// network's round arena is reused in place) while no tenant starves or
// monopolizes the process.
//
// Three properties, all test-enforced:
//
//   - Per-key serialization: at most one job of a given tenant runs at
//     a time, in submission order. A tenant's jobs may therefore close
//     over shared mutable state (the deployment's round arena) without
//     locking.
//   - Round-robin fairness: runnable tenants are served in FIFO
//     rotation, one job per turn, so a tenant with a deep backlog delays
//     a fresh submitter by at most one job per runnable tenant.
//   - Bounded backpressure: each tenant's queue holds at most the
//     configured number of jobs; Submit fails fast with ErrBacklog
//     instead of buffering without bound (the HTTP layer surfaces this
//     as 429).
//
// Jobs run on the scheduler's own workers, not the global ForEach
// budget; work inside a job that calls ForEach still shares the
// machine-wide inflight token pool like every other caller.

import (
	"errors"
	"sync"
)

// ErrBacklog is returned by Submit when the tenant's queue is full.
var ErrBacklog = errors.New("pool: tenant queue full")

// ErrSchedulerClosed is returned by Submit after Close.
var ErrSchedulerClosed = errors.New("pool: scheduler closed")

// FairScheduler multiplexes per-tenant serial job streams over a fixed
// set of workers with round-robin fairness and bounded queues.
type FairScheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[int64]*tenantQueue
	ready  []int64 // FIFO rotation of runnable tenant keys
	cap    int
	closed bool
	wg     sync.WaitGroup
}

// tenantQueue is one tenant's bounded FIFO plus its scheduling state.
// A tenant is "runnable" when it has queued jobs, nothing running, and
// is not already in the ready rotation; the three flags keep each key
// in the rotation at most once, which is what makes rotation order
// round-robin rather than submission-weighted.
type tenantQueue struct {
	jobs    []func()
	head    int
	n       int
	running bool
	ready   bool
}

func (q *tenantQueue) push(job func()) {
	i := (q.head + q.n) % len(q.jobs)
	q.jobs[i] = job
	q.n++
}

func (q *tenantQueue) pop() func() {
	job := q.jobs[q.head]
	q.jobs[q.head] = nil
	q.head = (q.head + 1) % len(q.jobs)
	q.n--
	return job
}

// NewFairScheduler starts a scheduler with the given worker count
// (values < 1 mean Size()) and per-tenant queue capacity (values < 1
// mean 1). Callers must Close it to release the workers.
func NewFairScheduler(workers, perTenantQueue int) *FairScheduler {
	if workers < 1 {
		workers = Size()
	}
	if perTenantQueue < 1 {
		perTenantQueue = 1
	}
	s := &FairScheduler{
		queues: make(map[int64]*tenantQueue),
		cap:    perTenantQueue,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

func (s *FairScheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.ready) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		k := s.ready[0]
		s.ready = s.ready[1:]
		q := s.queues[k]
		if q == nil || q.n == 0 {
			// Stale rotation entry (the tenant was dropped); skip it.
			if q != nil {
				q.ready = false
			}
			continue
		}
		q.ready = false
		q.running = true
		job := q.pop()
		s.mu.Unlock()

		job()

		s.mu.Lock()
		q.running = false
		if q.n > 0 && !q.ready && !s.closed {
			q.ready = true
			s.ready = append(s.ready, k)
			s.cond.Signal()
		} else if q.n == 0 {
			delete(s.queues, k)
		}
	}
}

// Submit enqueues a job for the tenant. Jobs of one tenant run
// serially in submission order; jobs of different tenants run
// concurrently, scheduled round-robin. Returns ErrBacklog when the
// tenant already has perTenantQueue jobs queued, ErrSchedulerClosed
// after Close.
func (s *FairScheduler) Submit(tenant int64, job func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSchedulerClosed
	}
	q := s.queues[tenant]
	if q == nil {
		q = &tenantQueue{jobs: make([]func(), s.cap)}
		s.queues[tenant] = q
	}
	if q.n == len(q.jobs) {
		return ErrBacklog
	}
	q.push(job)
	if !q.running && !q.ready {
		q.ready = true
		s.ready = append(s.ready, tenant)
		s.cond.Signal()
	}
	return nil
}

// QueueLen reports the tenant's queued (not yet started) job count.
func (s *FairScheduler) QueueLen(tenant int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[tenant]; q != nil {
		return q.n
	}
	return 0
}

// Queued reports the total queued job count across all tenants.
func (s *FairScheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, q := range s.queues {
		total += q.n
	}
	return total
}

// Drop discards the tenant's queued jobs. A job already running is not
// interrupted; its completion clears the tenant's remaining state.
func (s *FairScheduler) Drop(tenant int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[tenant]
	if q == nil {
		return
	}
	for q.n > 0 {
		q.pop()
	}
	if !q.running && !q.ready {
		delete(s.queues, tenant)
	}
}

// Close discards all queued jobs, waits for in-flight jobs to finish,
// and releases the workers. Submit fails afterwards.
func (s *FairScheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.queues = make(map[int64]*tenantQueue)
	s.ready = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
