package sim

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// statsFixture builds a deterministic set of per-round stats shaped
// like real rounds (including all-lost rounds).
func statsFixture(n int) []RoundStats {
	out := make([]RoundStats, n)
	for i := range out {
		devices := 1 + i%7
		ok := i % (devices + 1)
		out[i] = RoundStats{
			Devices:       devices,
			Detected:      min(devices, ok+1),
			FramesOK:      ok,
			BitErrors:     i % 5,
			TotalBits:     48 * (ok + 1),
			ScheduledBits: 48 * devices,
			RoundSecs:     0.001 * float64(1+i%3),
		}
	}
	return out
}

// TestAccumulatorSerialOracle: the accumulator's totals equal a plain
// serial fold of the same rounds.
func TestAccumulatorSerialOracle(t *testing.T) {
	rounds := statsFixture(200)
	var a Accumulator
	var want Snapshot
	for _, r := range rounds {
		a.AddRound(r)
		want.Rounds++
		if r.Devices > 0 && r.FramesOK == 0 {
			want.AllLostRounds++
		}
		want.Devices += int64(r.Devices)
		want.Detected += int64(r.Detected)
		want.FramesOK += int64(r.FramesOK)
		want.BitErrors += int64(r.BitErrors)
		want.TotalBits += int64(r.TotalBits)
		want.ScheduledBits += int64(r.ScheduledBits)
		want.SimSeconds += r.RoundSecs
	}
	want.derive()
	got := a.Snapshot()
	if got != want {
		t.Fatalf("snapshot %+v != serial oracle %+v", got, want)
	}
	if got.PER != 1-float64(got.FramesOK)/float64(got.Devices) {
		t.Fatalf("derived PER %v inconsistent with counters", got.PER)
	}
}

// TestAccumulatorConcurrent: folding the same rounds from many
// goroutines (with interleaved snapshots) matches the serial oracle —
// the race detector checks the locking, the totals check atomicity.
func TestAccumulatorConcurrent(t *testing.T) {
	rounds := statsFixture(400)
	var serial Accumulator
	for _, r := range rounds {
		serial.AddRound(r)
	}
	want := serial.Snapshot()

	const workers = 8
	var a Accumulator
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(rounds); i += workers {
				a.AddRound(rounds[i])
				if i%13 == 0 {
					// Interleaved snapshots must always be internally
					// consistent: counters never exceed the full fold.
					s := a.Snapshot()
					if s.FramesOK > want.FramesOK || s.Rounds > want.Rounds {
						t.Errorf("snapshot overshoots oracle: %+v", s)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := a.Snapshot(); got != want {
		t.Fatalf("concurrent fold %+v != serial oracle %+v", got, want)
	}
}

// TestAccumulatorMulti: AddMulti folds the combined round and tracks
// soft totals only when the round carried a soft outcome.
func TestAccumulatorMulti(t *testing.T) {
	var a Accumulator
	m := MultiRoundStats{
		Combined: RoundStats{Devices: 4, Detected: 3, FramesOK: 2, TotalBits: 96, ScheduledBits: 192, RoundSecs: 0.01},
		Soft:     RoundStats{Devices: 4, Detected: 4, FramesOK: 3, TotalBits: 96, ScheduledBits: 192},
	}
	a.AddMulti(m, true)
	a.AddMulti(m, false)
	s := a.Snapshot()
	if s.Rounds != 2 || s.FramesOK != 4 {
		t.Fatalf("combined fold wrong: %+v", s)
	}
	if s.SoftRounds != 1 || s.SoftFramesOK != 3 {
		t.Fatalf("soft fold wrong: %+v", s)
	}
}

// TestAccumulatorAddAllocs: the fold is allocation-free — it sits on
// every tenant's round hot path in netscatter-serve.
func TestAccumulatorAddAllocs(t *testing.T) {
	var a Accumulator
	r := statsFixture(1)[0]
	m := MultiRoundStats{Combined: r, Soft: r}
	if n := testing.AllocsPerRun(100, func() { a.AddRound(r) }); n != 0 {
		t.Fatalf("AddRound allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.AddMulti(m, true) }); n != 0 {
		t.Fatalf("AddMulti allocates %v/op", n)
	}
}

// TestSnapshotJSON: the export round-trips through JSON with the
// derived rates present.
func TestSnapshotJSON(t *testing.T) {
	var a Accumulator
	for _, r := range statsFixture(50) {
		a.AddRound(r)
	}
	s := a.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("JSON round-trip changed the snapshot: %+v != %+v", back, s)
	}
	if math.IsNaN(s.PER) || math.IsNaN(s.BER) || math.IsNaN(s.GoodputBps) {
		t.Fatalf("derived rates not finite: %+v", s)
	}
}

// TestAccumulatorLiveRounds: real network rounds stepped in one
// goroutine while other goroutines snapshot concurrently — snapshots
// stay internally consistent at every instant, and the final export
// equals the serial oracle fold of the exact per-round stats.
func TestAccumulatorLiveRounds(t *testing.T) {
	net := testMultiAPNetwork(t, 8, 2, 21)
	oracle := testMultiAPNetwork(t, 8, 2, 21)
	const rounds = 24

	var want Snapshot
	for i := 0; i < rounds; i++ {
		stats, err := oracle.RunRound(8)
		if err != nil {
			t.Fatal(err)
		}
		var w Accumulator
		w.AddMulti(stats, false)
		s := w.Snapshot()
		want.Rounds += s.Rounds
		want.AllLostRounds += s.AllLostRounds
		want.Devices += s.Devices
		want.Detected += s.Detected
		want.FramesOK += s.FramesOK
		want.BitErrors += s.BitErrors
		want.TotalBits += s.TotalBits
		want.ScheduledBits += s.ScheduledBits
		want.SimSeconds += s.SimSeconds
	}
	want.derive()

	var a Accumulator
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := a.Snapshot()
				if s.FramesOK > s.Devices || s.Rounds > rounds {
					t.Errorf("inconsistent live snapshot: %+v", s)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		stats, err := net.RunRound(8)
		if err != nil {
			t.Fatal(err)
		}
		a.AddMulti(stats, false)
	}
	close(done)
	wg.Wait()
	if got := a.Snapshot(); got != want {
		t.Fatalf("live fold %+v != serial oracle %+v", got, want)
	}
}

// AddRound folds one single-AP (or combined) round.
func (a *Accumulator) AddRound(r RoundStats) {
	a.mu.Lock()
	a.addLocked(r)
	a.mu.Unlock()
}
