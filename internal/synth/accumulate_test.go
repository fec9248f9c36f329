package synth

import (
	"testing"

	"netscatter/internal/chirp"
)

// FrameMixedAccumulate adds the FrameMixedInto waveform, placed at
// sample offset at, directly into out — without materializing the
// frame: FrameMixedTemplates into the caller-owned scratch tmpl (grown
// to 2N and returned for reuse), then one whole-buffer
// FrameMixedAccumulateRange. It is the serial reference the tiled and
// fused accumulate paths are pinned against.
func (s *Synthesizer) FrameMixedAccumulate(out []complex128, at int, tmpl []complex128, shift, upPreamble, downPreamble int, bits []byte, frac, omega float64, gain complex128) []complex128 {
	tmpl = s.FrameMixedTemplates(tmpl, shift, upPreamble, downPreamble, bits, frac, omega, gain)
	s.FrameMixedAccumulateRange(out, 0, len(out), at, tmpl, upPreamble, downPreamble, bits, frac, omega)
	return tmpl
}

// TestFrameMixedAccumulateBitExact pins the fused accumulate contract:
// adding a frame directly into a receive buffer must be bit-identical
// to materializing it with FrameMixedInto and superposing it sample by
// sample — across fractional delays, frequency offsets, gains,
// clipping at both ends, and all-silence frames.
func TestFrameMixedAccumulateBitExact(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	s := For(p)
	n := s.n

	cases := []struct {
		name  string
		at    int
		bits  []byte
		frac  float64
		omega float64
		gain  complex128
	}{
		{"plain", 3, []byte{1, 0, 1, 1, 0}, 0, 0, 1},
		{"delayed", 7, []byte{1, 0, 1, 1, 0}, 0.37, 0, complex(0.8, 0.1)},
		{"mixed", 11, []byte{0, 1, 0, 0, 1, 1}, 0.12, 2 * 3.14159 * 200 / p.SampleRate(), complex(1.4, -0.3)},
		{"neg-offset-clip", -3*n - 17, []byte{1, 1, 0, 1}, 0.5, 0.001, complex(0.5, 0.5)},
		{"tail-clip", 6 * n, []byte{1, 0, 1}, 0.25, -0.002, complex(2, 0)},
		{"all-zero-bits", 5, []byte{0, 0, 0, 0}, 0.4, 0.001, complex(1, 1)},
		{"far-negative", -100 * n, []byte{1, 1}, 0.3, 0, 1},
		{"far-positive", 100 * n, []byte{1, 1}, 0.3, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outLen := 10 * n
			want := make([]complex128, outLen)
			got := make([]complex128, outLen)
			// Non-trivial starting contents, built additively from +0.0
			// so they satisfy the accumulate contract's precondition.
			seed := s.bank
			for i := range want {
				v := seed[i%n] * complex(0.01, 0.02)
				want[i] += v
				got[i] += v
			}

			frame := s.FrameMixedInto(nil, 9, 6, 2, tc.bits, tc.frac, tc.omega, tc.gain)
			for i, v := range frame {
				j := tc.at + i
				if j < 0 || j >= len(want) {
					continue
				}
				want[j] += v
			}

			tmpl := s.FrameMixedAccumulate(got, tc.at, nil, 9, 6, 2, tc.bits, tc.frac, tc.omega, tc.gain)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: accumulate %v != materialized %v", i, got[i], want[i])
				}
			}

			// Second frame through the reused template scratch.
			s.FrameMixedAccumulate(got, tc.at+n, tmpl, 9, 6, 2, tc.bits, tc.frac, tc.omega, tc.gain)
			for i, v := range frame {
				j := tc.at + n + i
				if j < 0 || j >= len(want) {
					continue
				}
				want[j] += v
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("reused scratch: sample %d: %v != %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestFrameMixedAccumulateRangeTilesBitExact pins the tiled transmit
// contract: accumulating a frame through any partition of the buffer
// into [lo, hi) tiles — including tiny, unaligned and degenerate ones —
// is bit-identical to the single whole-buffer accumulate, because the
// per-sample additions are the same products in the same order.
func TestFrameMixedAccumulateRangeTilesBitExact(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	s := For(p)
	n := s.n
	bits := []byte{1, 0, 1, 1, 0, 1, 0, 0, 1}
	frac := 0.31
	omega := 0.0004
	gain := complex(1.2, -0.7)
	outLen := 14*n + 5

	want := make([]complex128, outLen)
	tmpl := s.FrameMixedAccumulate(want, 2*n+3, nil, 9, 6, 2, bits, frac, omega, gain)

	partitions := [][]int{
		{0, outLen},                             // trivial
		{0, 1, 2, outLen - 1, outLen},           // degenerate edges
		{0, 512, 1024, 1536, outLen},            // fixed-grain tiles
		{0, n / 2, n, 3*n + 7, 9 * n, outLen},   // unaligned
		{0, 33, 34, 35, 4*n + 1, 5 * n, outLen}, // mixed
	}
	for _, cuts := range partitions {
		got := make([]complex128, outLen)
		for i := 0; i+1 < len(cuts); i++ {
			s.FrameMixedAccumulateRange(got, cuts[i], cuts[i+1], 2*n+3, tmpl, 6, 2, bits, frac, omega)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("partition %v: sample %d: %v != %v", cuts, i, got[i], want[i])
			}
		}
	}

	// Tiles may also arrive in any order (parallel workers finish out of
	// order; their ranges are disjoint).
	got := make([]complex128, outLen)
	order := []int{3, 0, 2, 1}
	cuts := []int{0, 4 * n, 8 * n, 12 * n, outLen}
	for _, k := range order {
		s.FrameMixedAccumulateRange(got, cuts[k], cuts[k+1], 2*n+3, tmpl, 6, 2, bits, frac, omega)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out-of-order tiles: sample %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestFrameMixedTemplatesAllSilence checks the all-silent frame leaves
// the template scratch untouched and range accumulation adds nothing.
func TestFrameMixedTemplatesAllSilence(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 1}
	s := For(p)
	bits := []byte{0, 0, 0}
	tmpl := s.FrameMixedTemplates(nil, 9, 0, 0, bits, 0.2, 0.001, 1)
	if tmpl != nil {
		t.Fatalf("all-silent frame grew the template scratch to %d", len(tmpl))
	}
	out := make([]complex128, 4*s.n)
	s.FrameMixedAccumulateRange(out, 0, len(out), 0, tmpl, 0, 0, bits, 0.2, 0.001)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("all-silent frame wrote sample %d: %v", i, v)
		}
	}
}

// TestFrameMixedAccumulateAggregate covers the bandwidth-aggregation
// synthesis branch (Oversample > 1).
func TestFrameMixedAccumulateAggregate(t *testing.T) {
	p := chirp.Params{SF: 7, BW: 125e3, Oversample: 2}
	s := For(p)
	bits := []byte{1, 0, 1}
	out := make([]complex128, 14*s.n)
	want := make([]complex128, len(out))

	frame := s.FrameMixedInto(nil, 30, 6, 2, bits, 0.21, 0.0007, complex(1.1, 0.4))
	for i, v := range frame {
		want[5+i] += v
	}
	s.FrameMixedAccumulate(out, 5, nil, 30, 6, 2, bits, 0.21, 0.0007, complex(1.1, 0.4))
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("sample %d: %v != %v", i, out[i], want[i])
		}
	}
}

func BenchmarkFrameMixedAccumulate(b *testing.B) {
	p := chirp.Default500k9
	s := For(p)
	bits := make([]byte, 48)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	out := make([]complex128, s.FrameSamples(8+len(bits), 0.37)+64)
	var tmpl []complex128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl = s.FrameMixedAccumulate(out, 17, tmpl, 42, 6, 2, bits, 0.37, 0.0003, complex(1.4, -0.3))
	}
}
