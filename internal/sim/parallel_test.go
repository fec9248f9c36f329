package sim

// Concurrency tests for the round path: rounds of independent networks
// run side by side must each reproduce their serial statistics (the
// synth bank, FFT plans and worker pool are shared), and a seeded round
// must not depend on the pool width — exercised under -race in CI.
// Networks that share one deployment are built after it is placed:
// NewMultiAPNetwork places an unplaced deployment itself, and
// concurrent constructors would race on that write.

import (
	"runtime"
	"sync"
	"testing"

	"netscatter/internal/pool"
	"netscatter/internal/simtest"
)

// TestConcurrentRunRoundRace drives several independent one-AP
// networks' RunRound simultaneously over one shared deployment — each
// round internally fans template synthesis, the tile grid and the
// decode pipeline across the shared pool — so `go test -race` sweeps
// the whole parallel receive path for data races.
func TestConcurrentRunRoundRace(t *testing.T) {
	dep := simtest.MultiAPDeployment(t, 16, 1, 3)
	cfg := DefaultConfig()
	cfg.PayloadBytes = 2

	const nets = 4
	var wg sync.WaitGroup
	errs := make([]error, nets)
	stats := make([]RoundStats, nets)
	for g := 0; g < nets; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			net, err := NewMultiAPNetwork(cfg, dep, 1, 16, int64(g)+1)
			if err != nil {
				errs[g] = err
				return
			}
			for round := 0; round < 2; round++ {
				s, err := net.RunRound(16)
				if err != nil {
					errs[g] = err
					return
				}
				stats[g] = s.Combined
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("network %d: %v", g, err)
		}
	}
	for g, s := range stats {
		if s.Devices != 16 {
			t.Fatalf("network %d ran %d devices", g, s.Devices)
		}
	}
}

// TestConcurrentRoundsAcrossNetworks runs several independent one-AP
// networks over one shared placed deployment concurrently and checks
// each produces exactly its serial statistics.
func TestConcurrentRoundsAcrossNetworks(t *testing.T) {
	const nets = 4
	const rounds = 2
	dep := simtest.MultiAPDeployment(t, 16, 1, 100)
	cfg := DefaultConfig()
	cfg.Params = simtest.SmallParams()
	cfg.PayloadBytes = 2
	run := func(i int) ([]RoundStats, error) {
		net, err := NewMultiAPNetwork(cfg, dep, 1, 16, int64(101+i))
		if err != nil {
			return nil, err
		}
		var out []RoundStats
		for r := 0; r < rounds; r++ {
			stats, err := net.RunRound(16)
			if err != nil {
				return nil, err
			}
			out = append(out, stats.Combined)
		}
		return out, nil
	}

	// Serial baseline.
	want := make([][]RoundStats, nets)
	for i := 0; i < nets; i++ {
		var err error
		if want[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][]RoundStats, nets)
	errs := make([]error, nets)
	var wg sync.WaitGroup
	for i := 0; i < nets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < nets; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for r := range want[i] {
			if got[i][r] != want[i][r] {
				t.Fatalf("network %d round %d: concurrent %+v != serial %+v", i, r, got[i][r], want[i][r])
			}
		}
	}
}

// TestRunRoundDeterministicAcrossGOMAXPROCS pins the parallelization
// contract: a seeded one-AP round produces identical statistics whether
// the pool has one slot or many.
func TestRunRoundDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func() RoundStats {
		dep := simtest.Deployment(t, 24, 17)
		cfg := DefaultConfig()
		cfg.PayloadBytes = 3
		net := newOneAPNetwork(t, cfg, dep, 24, 99)
		stats, err := net.RunRound(24)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Combined
	}

	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	if pool.Size() != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool.Size() = %d, GOMAXPROCS = %d", pool.Size(), runtime.GOMAXPROCS(0))
	}
	parallel := run()
	if serial != parallel {
		t.Fatalf("round stats differ across GOMAXPROCS:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
