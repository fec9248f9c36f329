package synth

import (
	"math"
	"testing"

	"netscatter/internal/chirp"
	"netscatter/internal/dsp"
)

// fusedCase is one frame of a fused-accumulate oracle fleet: the frame
// arguments, its templates and its schedule.
type fusedCase struct {
	at, shift, up, down int
	bits                []byte
	frac, omega         float64
	tmpl                []complex128
	sched               FrameSchedule
}

// kinds of frames the oracle fleets draw from.
const (
	frameFull     = iota // 6 up, 2 down preamble symbols, random bits
	frameNoUp            // down preamble only: kUp is the first '1' bit
	frameBitsOnly        // no preamble at all
	frameSilent          // no preamble, all-zero bits: an empty schedule
	frameKinds
)

// newFusedCase builds one frame of a fleet: placement base0 plus a
// seeded offset in [0, spread], with the given frame kind.
func newFusedCase(s *Synthesizer, rng *dsp.Rand, base0, spread, kind int) fusedCase {
	c := fusedCase{
		at:    base0,
		shift: rng.Intn(s.n),
		up:    6,
		down:  2,
		bits:  rng.Bits(5 + rng.Intn(9)),
		frac:  float64(rng.Intn(4)) / 4,
		omega: float64(rng.Intn(3)-1) * 3e-4 * rng.Float64(),
	}
	if spread > 0 {
		c.at += rng.Intn(spread + 1)
	}
	switch kind {
	case frameNoUp:
		c.up = 0
	case frameBitsOnly:
		c.up, c.down = 0, 0
	case frameSilent:
		c.up, c.down = 0, 0
		for i := range c.bits {
			c.bits[i] = 0
		}
	}
	gain := rng.ComplexNormal(1)
	c.tmpl = s.FrameMixedTemplates(nil, c.shift, c.up, c.down, c.bits, c.frac, c.omega, gain)
	s.FrameMixedSchedule(&c.sched, c.at, c.up, c.down, c.bits, c.frac, c.omega)
	return c
}

// checkFusedMatchesPerFrame accumulates the fleet over the tile cuts
// twice — per frame with FrameMixedAccumulateRange in fleet order, and
// fused with AccumulateFrames — and requires the same bits, telling
// +0 from −0.
func checkFusedMatchesPerFrame(t *testing.T, s *Synthesizer, fleet []fusedCase, outLen int, cuts []int) {
	t.Helper()
	want := make([]complex128, outLen)
	got := make([]complex128, outLen)
	frames := make([]FusedFrame, len(fleet))
	for r := range fleet {
		frames[r] = FusedFrame{Sched: &fleet[r].sched, Tmpl: fleet[r].tmpl}
	}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		for r := range fleet {
			c := &fleet[r]
			s.FrameMixedAccumulateRange(want, lo, hi, c.at, c.tmpl, c.up, c.down, c.bits, c.frac, c.omega)
		}
		s.AccumulateFrames(got, lo, hi, frames)
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%d frames, cuts %v: sample %d: fused %v != per-frame %v", len(fleet), cuts, i, got[i], want[i])
		}
	}
}

// TestFusedAccumulateMatchesPerFrame pins AccumulateFrames to its
// oracle — one FrameMixedAccumulateRange call per frame, in order —
// over run lengths 1–16 (past FuseRun, so chunked runs too), delay
// spreads of 0–3 samples (the channel's case: one long core per symbol
// period plus boundary samples) and of N/2 and more (frames straddling
// each other's symbols by half a symbol and beyond), frames with silent
// symbols, all-silent frames, frames without an up preamble or any
// preamble, frames clipped at both buffer ends, and several tile
// partitions including degenerate and unaligned cuts.
func TestFusedAccumulateMatchesPerFrame(t *testing.T) {
	p := chirp.Params{SF: 6, BW: 125e3, Oversample: 1}
	s := For(p)
	n := s.n
	outLen := 26*n + 7
	partitions := [][]int{
		{0, outLen},
		{0, 1, 2, 3, outLen - 1, outLen},
		{0, 4 * n, 8 * n, 12 * n, 16 * n, 20 * n, 24 * n, outLen},
		{0, n/2 + 3, 3*n + 1, 3*n + 2, 11*n - 5, outLen},
	}
	rng := dsp.NewRand(31)
	for runLen := 1; runLen <= 16; runLen++ {
		for _, spread := range []int{0, 1, 2, 3, n / 2, n/2 + 5, 3 * n} {
			fleet := make([]fusedCase, runLen)
			base0 := 2*n + 3
			if runLen%5 == 0 {
				base0 = -3*n - 5 // clipped at the buffer's start
			}
			for r := range fleet {
				fleet[r] = newFusedCase(s, rng, base0, spread, (r+runLen)%frameKinds)
			}
			if runLen%7 == 0 {
				fleet[runLen-1].at = outLen - 2*n // clipped at the end
				fleet[runLen-1].sched = FrameSchedule{}
				c := &fleet[runLen-1]
				s.FrameMixedSchedule(&c.sched, c.at, c.up, c.down, c.bits, c.frac, c.omega)
			}
			for _, cuts := range partitions {
				checkFusedMatchesPerFrame(t, s, fleet, outLen, cuts)
			}
		}
	}
}

// TestFrameMixedScheduleReusesStorage: a refilled schedule keeps its
// storage, so a channel's per-device schedules stop allocating after
// the first round.
func TestFrameMixedScheduleReusesStorage(t *testing.T) {
	s := For(chirp.Params{SF: 7, BW: 125e3, Oversample: 1})
	bits := []byte{1, 0, 1, 1, 0, 0, 1}
	var sc FrameSchedule
	s.FrameMixedSchedule(&sc, 3, 6, 2, bits, 0.25, 1e-4)
	if len(sc.kind) != 6+2+len(bits) {
		t.Fatalf("schedule covers %d symbols, want %d", len(sc.kind), 6+2+len(bits))
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.FrameMixedSchedule(&sc, 5, 6, 2, bits, 0.5, 2e-4)
	})
	if allocs != 0 {
		t.Fatalf("refilling a schedule allocates %.1f objects", allocs)
	}
	s.FrameMixedSchedule(&sc, 5, 0, 0, []byte{0, 0}, 0.5, 2e-4)
	if len(sc.kind) != 0 {
		t.Fatalf("all-silent frame scheduled %d symbols", len(sc.kind))
	}
}

// FuzzFusedAccumulate explores the fused accumulate against per-frame
// accumulation: a seeded fleet of up to 16 frames of every kind, a
// delay spread up to several symbols, and a random tile partition.
func FuzzFusedAccumulate(f *testing.F) {
	f.Add(int64(1), uint8(8), uint16(3), uint16(4096))
	f.Add(int64(2), uint8(1), uint16(0), uint16(1))
	f.Add(int64(3), uint8(16), uint16(70), uint16(333))
	f.Add(int64(4), uint8(9), uint16(500), uint16(64))
	f.Fuzz(func(t *testing.T, seed int64, nFrames uint8, spread, tile uint16) {
		p := chirp.Params{SF: 6, BW: 125e3, Oversample: 1}
		s := For(p)
		n := s.n
		rng := dsp.NewRand(seed)
		fleet := make([]fusedCase, 1+int(nFrames)%16)
		base0 := rng.Intn(6*n) - 3*n
		for r := range fleet {
			fleet[r] = newFusedCase(s, rng, base0, int(spread)%(4*n), rng.Intn(frameKinds))
		}
		outLen := 30 * n
		step := 1 + int(tile)%outLen
		cuts := []int{0}
		for c := step; c < outLen; c += step {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, outLen)
		checkFusedMatchesPerFrame(t, s, fleet, outLen, cuts)
	})
}

// BenchmarkAccumulateTile measures one 4096-sample receive tile of
// 32 SF9 frames with delays spread over 0–3 samples, as the channel
// accumulates it: per frame (one FrameMixedAccumulateRange pass per
// frame, the closure path) and fused (schedules filled once, then
// AccumulateFrames in runs of FuseRun). ns/mac is the time per complex
// multiply-add, the unit the kernel comparison is stated in.
func BenchmarkAccumulateTile(b *testing.B) {
	s := For(chirp.Default500k9)
	n := s.n
	rng := dsp.NewRand(7)
	fleet := make([]fusedCase, 32)
	for r := range fleet {
		fleet[r] = newFusedCase(s, rng, 3, 3, frameFull)
	}
	lo, hi := 4096, 8192
	out := make([]complex128, 12*n+4096)
	macs := 0
	for r := range fleet {
		c := &fleet[r]
		for j := lo; j < hi; j++ {
			if k := floorDiv(j-c.sched.base, n); k >= 0 && k < len(c.sched.kind) && c.sched.kind[k] != symSilent {
				macs++
			}
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(macs), "ns/mac")
	}
	b.Run("per-frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(out[lo:hi])
			for r := range fleet {
				c := &fleet[r]
				s.FrameMixedAccumulateRange(out, lo, hi, c.at, c.tmpl, c.up, c.down, c.bits, c.frac, c.omega)
			}
		}
		report(b)
	})
	b.Run("fused", func(b *testing.B) {
		frames := make([]FusedFrame, len(fleet))
		for r := range fleet {
			frames[r] = FusedFrame{Sched: &fleet[r].sched, Tmpl: fleet[r].tmpl}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(out[lo:hi])
			s.AccumulateFrames(out, lo, hi, frames)
		}
		report(b)
	})
}
