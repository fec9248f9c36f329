package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestTrajectoryOracleBitIdenticalToRunRound pins the retained oracle:
// with every adversity knob at zero, stepping a trajectory is
// bit-identical to calling RunRound on an identically-seeded network —
// not just statistics, the received waveforms themselves. The
// trajectory genuinely exercises the runRound(adv) path (all-active
// masks, all-alive APs, identity SNR rewrites), so this holds only if
// the adversity plumbing is a true no-op when idle.
func TestTrajectoryOracleBitIdenticalToRunRound(t *testing.T) {
	for _, k := range []int{1, 2} {
		ref := testMultiAPNetwork(t, 12, k, 21)
		sub := testMultiAPNetwork(t, 12, k, 21)
		tr, err := NewTrajectory(sub, TrajectoryConfig{Rounds: 4, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			want, err := ref.RunRound(12)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.Step()
			if err != nil {
				t.Fatal(err)
			}
			if got.Combined != want.Combined || !reflect.DeepEqual(got.PerAP, want.PerAP) {
				t.Fatalf("k=%d round %d stats diverge:\n got %+v\nwant %+v", k, r, got, want)
			}
			if !reflect.DeepEqual(sub.rc.sigArena, ref.rc.sigArena) {
				t.Fatalf("k=%d round %d received waveforms diverge", k, r)
			}
		}
	}
}

// fullAdversityConfig turns every process on at once.
func fullAdversityConfig(rounds int) TrajectoryConfig {
	return TrajectoryConfig{
		Rounds:        rounds,
		Seed:          7,
		Correlation:   0.95,
		CFODriftHz:    1,
		MobilityStepM: 0.05,
		SleepProb:     0.2,
		WakeProb:      0.5,
		BurstProb:     0.3,
		APDropProb:    0.2,
	}
}

// TestTrajectoryBitReproducibleAcrossGOMAXPROCS pins the tentpole's
// determinism contract: a full-adversity trajectory — fading drift,
// CFO walks, mobility, churn, bursts and AP dropout all active — is
// bit-reproducible from its seed at any GOMAXPROCS. All evolution is
// serial; only the round's synthesis/decode fan out, and those were
// already schedule-invariant.
func TestTrajectoryBitReproducibleAcrossGOMAXPROCS(t *testing.T) {
	const rounds = 6
	type out struct {
		per   []MultiRoundStats
		stats TrajectoryStats
	}
	run := func(procs int) out {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		net := testMultiAPNetwork(t, 16, 2, 31)
		tr, err := NewTrajectory(net, fullAdversityConfig(rounds))
		if err != nil {
			t.Fatal(err)
		}
		var o out
		for r := 0; r < rounds; r++ {
			st, err := tr.Step()
			if err != nil {
				t.Fatal(err)
			}
			o.per = append(o.per, MultiRoundStats{
				Combined: st.Combined,
				PerAP:    append([]RoundStats(nil), st.PerAP...),
			})
		}
		o.stats = *tr.Stats()
		return o
	}

	want := run(1)
	for _, procs := range []int{2, 4} {
		got := run(procs)
		if !reflect.DeepEqual(got.per, want.per) {
			t.Fatalf("GOMAXPROCS=%d per-round stats diverge", procs)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("GOMAXPROCS=%d trajectory stats diverge:\n got %+v\nwant %+v",
				procs, got.stats, want.stats)
		}
	}
}

// TestTrajectoryAllAPsDropoutWellFormed: APDropProb = 1 kills the whole
// infrastructure every round. The rounds must stay well-formed — no
// panic, base statistics intact, zero frames through — and every
// scheduled frame is attributed to dropout.
func TestTrajectoryAllAPsDropoutWellFormed(t *testing.T) {
	const nDev, rounds = 8, 3
	net := testMultiAPNetwork(t, nDev, 2, 41)
	tr, err := NewTrajectory(net, TrajectoryConfig{Rounds: rounds, Seed: 5, APDropProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		st, err := tr.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.Combined.Devices != nDev || st.Combined.FramesOK != 0 || st.Combined.Detected != 0 {
			t.Fatalf("round %d: all-dead round not well-formed: %+v", r, st.Combined)
		}
		if st.Combined.PER() != 1 {
			t.Fatalf("round %d: PER %v on an all-dead round", r, st.Combined.PER())
		}
	}
	s := tr.Stats()
	if s.AllLostRounds != rounds {
		t.Fatalf("AllLostRounds = %d, want %d", s.AllLostRounds, rounds)
	}
	if s.APDownRounds != 2*rounds {
		t.Fatalf("APDownRounds = %d, want %d", s.APDownRounds, 2*rounds)
	}
	if s.LostToDropout != nDev*rounds {
		t.Fatalf("LostToDropout = %d, want %d", s.LostToDropout, nDev*rounds)
	}
	if s.LostToInterference+s.LostToFading+s.LostToOther != 0 {
		t.Fatalf("losses misattributed: %+v", s)
	}
}

// TestTrajectoryDeepFadeRecovery drives one strong device into a
// persistent 12 dB fade (everyone else rides a high-K channel that
// never trips the power rule) and asserts the full recovery loop: the
// §3.2.3 slack rule skips it three rounds, NeedsReassociation trips,
// the AP drops it, it re-associates against the faded downlink, and
// its first CRC-valid frame closes the recovery window within the
// skip-budget + handshake latency.
func TestTrajectoryDeepFadeRecovery(t *testing.T) {
	const nDev = 8
	net := testMultiAPNetwork(t, nDev, 1, 51)
	tr, err := NewTrajectory(net, TrajectoryConfig{
		Rounds:      12,
		Seed:        13,
		Correlation: 0.999,
		KFactorDB:   25, // shallow fleet fading: only the forced fade trips
	})
	if err != nil {
		t.Fatal(err)
	}

	// Deep-fade the strongest device: plenty of SNR headroom, so the
	// only thing keeping it off the air is the power rule itself.
	dev := 0
	for i := 1; i < nDev; i++ {
		if net.dep.Devices[i].UplinkSNRdB > net.dep.Devices[dev].UplinkSNRdB {
			dev = i
		}
	}
	tr.faders[dev].SetDeepFade(12)

	recovered := -1
	for r := 0; r < 12; r++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if recovered < 0 && tr.pendingSince[dev] < 0 && r > 0 {
			recovered = r
			break
		}
	}
	s := tr.Stats()
	if s.Reassociations < 1 {
		t.Fatalf("deep fade never forced a re-association: %+v", s)
	}
	if s.DevicesLostByAP < 1 {
		t.Fatal("AP never dropped the faded device")
	}
	if recovered < 0 {
		t.Fatalf("device %d never recovered: %+v", dev, s)
	}
	// Budget: 3 skips to trip NeedsReassociation, ReassocRounds (1) of
	// handshake, back on the air that same round.
	budget := 3 + 1
	if len(s.RecoveryLatencies) == 0 || s.RecoveryLatencies[0] > budget {
		t.Fatalf("recovery latency %v exceeds budget %d", s.RecoveryLatencies, budget)
	}
	if !tr.known[dev] {
		t.Fatal("recovered device lost its AP record")
	}
}

// TestTrajectoryChurnRecoveryAccounting: heavy duty-cycling produces
// sleep and wake transitions, AP-side timeouts and re-associations,
// and the books stay consistent — every adversity decision re-derives
// from the seed, so two identical runs agree event for event.
func TestTrajectoryChurnRecoveryAccounting(t *testing.T) {
	run := func() TrajectoryStats {
		net := testMultiAPNetwork(t, 12, 1, 61)
		tr, err := NewTrajectory(net, TrajectoryConfig{
			Rounds:    20,
			Seed:      17,
			SleepProb: 0.3,
			WakeProb:  0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		return *tr.Stats()
	}
	s := run()
	if s.SleepEvents == 0 || s.WakeEvents == 0 {
		t.Fatalf("churn produced no transitions: %+v", s)
	}
	if s.DevicesLostByAP == 0 {
		t.Fatal("no sleeper was ever timed out by the AP")
	}
	if s.Reassociations == 0 {
		t.Fatal("no woken device ever re-associated")
	}
	if s.Rounds != 20 || len(s.PERPerRound) != 20 || len(s.ActivePerRound) != 20 {
		t.Fatalf("per-round series malformed: %+v", s)
	}
	for r, a := range s.ActivePerRound {
		if a < 0 || a > 12 {
			t.Fatalf("round %d: %d active devices", r, a)
		}
	}
	if again := run(); !reflect.DeepEqual(s, again) {
		t.Fatalf("churn trajectory not reproducible:\n %+v\nvs %+v", s, again)
	}
}

// TestTrajectoryInterferenceBurstsAttributed: with a burst every round
// and no other adversity, any lost frame can only be attributed to
// interference (or other — never fading or dropout).
func TestTrajectoryInterferenceBurstsAttributed(t *testing.T) {
	net := testMultiAPNetwork(t, 12, 2, 71)
	tr, err := NewTrajectory(net, TrajectoryConfig{
		Rounds:    6,
		Seed:      23,
		BurstProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.BurstRounds != 6 {
		t.Fatalf("BurstRounds = %d, want 6", s.BurstRounds)
	}
	if s.LostToFading != 0 || s.LostToDropout != 0 {
		t.Fatalf("burst-only losses misattributed: %+v", s)
	}
}

// TestTrajectorySteadyStateAllocsDropoutFree: an event-free but
// evolution-active trajectory step — correlated fading and CFO drift
// on, no churn/burst/dropout events — touches no heap once the stats
// arenas are warm (the round path already had this gate; the
// trajectory layer must not regress it).
func TestTrajectorySteadyStateAllocsDropoutFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	net := testMultiAPNetwork(t, 12, 2, 81)
	tr, err := NewTrajectory(net, TrajectoryConfig{
		Rounds:      40,
		Seed:        29,
		Correlation: 0.9,
		KFactorDB:   20, // shallow fades: no skip/re-association events
		CFODriftHz:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state trajectory step allocates %.1f objects/op, want 0", allocs)
	}
}

// stepFramesPayloads builds one round's traffic for nDev devices: every
// device whose index is a multiple of every sends a payload stamped
// with its index and the round, the others get nil and stay silent.
func stepFramesPayloads(nDev, size, every, round int) [][]byte {
	payloads := make([][]byte, nDev)
	for i := 0; i < nDev; i += every {
		pl := make([]byte, size)
		for j := range pl {
			pl[j] = byte(i*7 + round*31 + j)
		}
		payloads[i] = pl
	}
	return payloads
}

// TestTrajectoryStepFramesSilencesNilEntries: a round's payloads decide
// who is on the air. Nil entries silence exactly those devices (the
// scheduled count and Outcome agree), and every CRC-valid decode of a
// sender carries the bytes it was given, round after round, so no drawn
// or earlier payload shows through the arena.
func TestTrajectoryStepFramesSilencesNilEntries(t *testing.T) {
	const nDev, rounds = 16, 3
	for _, k := range []int{1, 2} {
		net := testMultiAPNetwork(t, nDev, k, 91)
		tr, err := NewTrajectory(net, TrajectoryConfig{Rounds: rounds, Seed: 37})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			every := 1 + r // all, every other, every third
			payloads := stepFramesPayloads(nDev, net.cfg.PayloadBytes, every, r)
			st, err := tr.StepFrames(payloads)
			if err != nil {
				t.Fatal(err)
			}
			senders, delivered := 0, 0
			for i, pl := range payloads {
				dec, sent, ffts := tr.Outcome(i)
				if ffts <= 0 {
					t.Fatalf("k=%d round %d: FFT count %d", k, r, ffts)
				}
				if sent != (pl != nil) {
					t.Fatalf("k=%d round %d: device %d sent=%v with payload %v", k, r, i, sent, pl)
				}
				if !sent {
					if dec.Detected || dec.CRCOK {
						t.Fatalf("k=%d round %d: silent device %d reports a decode", k, r, i)
					}
					continue
				}
				senders++
				if dec.CRCOK {
					if !bytes.Equal(dec.Payload, pl) {
						t.Fatalf("k=%d round %d: device %d decoded % x, sent % x", k, r, i, dec.Payload, pl)
					}
					delivered++
				}
			}
			if st.Combined.Devices != senders {
				t.Fatalf("k=%d round %d: %d scheduled, %d senders", k, r, st.Combined.Devices, senders)
			}
			if st.Combined.FramesOK != delivered {
				t.Fatalf("k=%d round %d: FramesOK %d, %d CRC-valid senders", k, r, st.Combined.FramesOK, delivered)
			}
			// Enough frames arrive that the byte check above is not vacuous.
			if 2*delivered < senders {
				t.Fatalf("k=%d round %d: only %d/%d senders delivered", k, r, delivered, senders)
			}
		}
	}
}

// TestTrajectoryStepFramesRefusesBadPayloads: a payload list of the
// wrong length, or a payload of the wrong size, is refused before any
// draw — the next valid step is bit-identical to a fresh trajectory's
// first.
func TestTrajectoryStepFramesRefusesBadPayloads(t *testing.T) {
	const nDev = 8
	ref := testMultiAPNetwork(t, nDev, 1, 93)
	sub := testMultiAPNetwork(t, nDev, 1, 93)
	refTr, err := NewTrajectory(ref, TrajectoryConfig{Seed: 41, Correlation: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrajectory(sub, TrajectoryConfig{Seed: 41, Correlation: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	good := stepFramesPayloads(nDev, sub.cfg.PayloadBytes, 2, 0)
	short := stepFramesPayloads(nDev, sub.cfg.PayloadBytes, 2, 0)
	short[2] = short[2][:1]
	long := stepFramesPayloads(nDev, sub.cfg.PayloadBytes, 2, 0)
	long[4] = append(long[4], 0xFF)
	for name, bad := range map[string][][]byte{
		"too few":    good[:nDev-1],
		"too many":   append(stepFramesPayloads(nDev, sub.cfg.PayloadBytes, 2, 0), nil),
		"empty list": {},
		"short":      short,
		"long":       long,
	} {
		if _, err := tr.StepFrames(bad); err == nil {
			t.Fatalf("%s: payloads accepted", name)
		}
	}
	want, err := refTr.StepFrames(good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.StepFrames(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Combined != want.Combined || !reflect.DeepEqual(sub.rc.sigArena, ref.rc.sigArena) {
		t.Fatalf("a refused call moved the trajectory:\n got %+v\nwant %+v", got.Combined, want.Combined)
	}
}

// TestTrajectoryStepFramesSteadyStateZeroAlloc: a 64-device step with
// caller payloads, half the fleet silent, touches no heap once warm —
// with the fleet's channels static and with them drifting under
// correlated fading (shallow, so no device skips or re-associates) — at
// GOMAXPROCS 1 and 2. At 2 the test counts mallocs itself, as
// checkRoundZeroAlloc does.
func TestTrajectoryStepFramesSteadyStateZeroAlloc(t *testing.T) {
	const nDev = 64
	for _, fading := range []bool{false, true} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("fading=%v/procs=%d", fading, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)

				net := testMultiAPNetwork(t, nDev, 1, 95)
				cfg := TrajectoryConfig{Seed: 43, NoSeries: true}
				if fading {
					cfg.Correlation, cfg.KFactorDB = 0.97, 20
				}
				tr, err := NewTrajectory(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				payloads := stepFramesPayloads(nDev, net.cfg.PayloadBytes, 2, 0)
				step := func() {
					if _, err := tr.StepFrames(payloads); err != nil {
						t.Fatal(err)
					}
				}
				if procs == 1 {
					step()
					if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
						t.Fatalf("steady-state StepFrames allocates %.1f objects/op, want 0", allocs)
					}
					return
				}
				for range 50 {
					step()
				}
				const runs = 100
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for range runs {
					step()
				}
				runtime.ReadMemStats(&after)
				if perStep := float64(after.Mallocs-before.Mallocs) / runs; perStep >= 0.1 {
					t.Fatalf("steady-state StepFrames at GOMAXPROCS 2 allocates %.2f objects/op, want 0", perStep)
				}
				if s := tr.Stats(); s.SkippedRounds != 0 || s.Reassociations != 0 {
					t.Fatalf("fade tripped the power rule: %+v", s)
				}
			})
		}
	}
}
