package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFairSerialization: at most one job of a given tenant runs at a
// time, and a tenant's jobs run in submission order, at any worker
// count.
func TestFairSerialization(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		s := NewFairScheduler(workers, 64)
		const tenants = 5
		const jobs = 40
		var inflight [tenants]atomic.Int32
		var order [tenants][]int
		var mu sync.Mutex
		var wg sync.WaitGroup
		for k := 0; k < tenants; k++ {
			for j := 0; j < jobs; j++ {
				k, j := k, j
				wg.Add(1)
				if err := s.Submit(int64(k), func() {
					defer wg.Done()
					if got := inflight[k].Add(1); got != 1 {
						t.Errorf("workers=%d: tenant %d has %d concurrent jobs", workers, k, got)
					}
					mu.Lock()
					order[k] = append(order[k], j)
					mu.Unlock()
					inflight[k].Add(-1)
				}); err != nil {
					t.Fatalf("workers=%d: submit: %v", workers, err)
				}
			}
		}
		wg.Wait()
		s.Close()
		for k := 0; k < tenants; k++ {
			if len(order[k]) != jobs {
				t.Fatalf("workers=%d: tenant %d ran %d of %d jobs", workers, k, len(order[k]), jobs)
			}
			for j, got := range order[k] {
				if got != j {
					t.Fatalf("workers=%d: tenant %d ran job %d at position %d", workers, k, got, j)
				}
			}
		}
	}
}

// TestFairRotation: with one worker, a fresh tenant's job is served
// after at most one job per runnable tenant — a deep backlog cannot
// starve a late submitter.
func TestFairRotation(t *testing.T) {
	s := NewFairScheduler(1, 128)
	defer s.Close()

	// A gate job parks the single worker so submissions below queue up
	// in a deterministic state.
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := s.Submit(0, func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	var seq []int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(k int64) func() {
		return func() {
			defer wg.Done()
			mu.Lock()
			seq = append(seq, k)
			mu.Unlock()
		}
	}
	// Tenant 0 floods; tenant 1 then submits two jobs.
	for j := 0; j < 20; j++ {
		wg.Add(1)
		if err := s.Submit(0, record(0)); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 2; j++ {
		wg.Add(1)
		if err := s.Submit(1, record(1)); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	wg.Wait()

	// Round-robin means tenant 1's second job completes within the
	// first four post-gate jobs (0,1,0,1...), far before tenant 0's
	// backlog drains.
	pos := -1
	count := 0
	for i, k := range seq {
		if k == 1 {
			count++
			pos = i
		}
	}
	if count != 2 {
		t.Fatalf("tenant 1 ran %d of 2 jobs; seq %v", count, seq)
	}
	if pos > 3 {
		t.Fatalf("tenant 1 finished at position %d, want <= 3 (starved by tenant 0's backlog); seq %v", pos, seq)
	}
}

// TestFairBacklog: the per-tenant queue bound rejects the overflow
// submission with ErrBacklog, and other tenants are unaffected.
func TestFairBacklog(t *testing.T) {
	s := NewFairScheduler(1, 2)
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := s.Submit(0, func() { close(started); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-started

	// Tenant 0 is running; its queue holds 2 more.
	if err := s.Submit(0, func() {}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if err := s.Submit(0, func() {}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if err := s.Submit(0, func() {}); err != ErrBacklog {
		t.Fatalf("overflow submit: got %v, want ErrBacklog", err)
	}
	if got := queueLen(s, 0); got != 2 {
		t.Fatalf("QueueLen(0) = %d, want 2", got)
	}
	// A different tenant still has room.
	done := make(chan struct{})
	if err := s.Submit(1, func() { close(done) }); err != nil {
		t.Fatalf("tenant 1 submit: %v", err)
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tenant 1's job never ran")
	}
}

// TestFairDrop: Drop discards queued jobs without touching the running
// one, and the tenant can submit again afterwards.
func TestFairDrop(t *testing.T) {
	s := NewFairScheduler(1, 8)
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int32
	if err := s.Submit(7, func() { close(started); <-gate; ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	<-started
	for j := 0; j < 4; j++ {
		if err := s.Submit(7, func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Drop(7)
	if got := queueLen(s, 7); got != 0 {
		t.Fatalf("QueueLen after Drop = %d, want 0", got)
	}
	close(gate)

	done := make(chan struct{})
	if err := s.Submit(7, func() { ran.Add(1); close(done) }); err != nil {
		t.Fatalf("submit after Drop: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-Drop job never ran")
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d jobs, want 2 (gate job + post-Drop job)", got)
	}
}

// TestFairClose: Close waits for the in-flight job, discards the
// queued ones, and fails subsequent submissions.
func TestFairClose(t *testing.T) {
	s := NewFairScheduler(2, 8)
	var finished atomic.Bool
	started := make(chan struct{})
	if err := s.Submit(0, func() {
		close(started)
		time.Sleep(50 * time.Millisecond)
		finished.Store(true)
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	var leaked atomic.Bool
	if err := s.Submit(0, func() { leaked.Store(true) }); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !finished.Load() {
		t.Fatal("Close returned before the in-flight job finished")
	}
	if leaked.Load() {
		t.Fatal("Close ran a queued job instead of discarding it")
	}
	if err := s.Submit(1, func() {}); err != ErrSchedulerClosed {
		t.Fatalf("Submit after Close: got %v, want ErrSchedulerClosed", err)
	}
	s.Close() // idempotent
}

// TestFairSchedulerRace hammers submissions, drops and queue
// inspection from many goroutines; the race detector is the assertion.
func TestFairSchedulerRace(t *testing.T) {
	s := NewFairScheduler(4, 4)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := int64(g % 4)
				_ = s.Submit(k, func() {})
				if i%17 == 0 {
					s.Drop(k)
				}
				_ = queueLen(s, k)
				_ = s.Queued()
			}
		}()
	}
	wg.Wait()
}

// queueLen reports the tenant's queued (not yet started) job count.
func queueLen(s *FairScheduler, tenant int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[tenant]; q != nil {
		return q.n
	}
	return 0
}
