package dsp

import (
	"fmt"
	"testing"
)

// splitPlanar copies the first nonzero entries of x into fresh planar
// buffers of length n (tail filled with a sentinel the pruned transform
// must ignore).
func splitPlanar(x []complex128, n, nonzero int) (re, im []float64) {
	re = make([]float64, n)
	im = make([]float64, n)
	for i := range re {
		re[i] = 123.456 // sentinel garbage in the padded tail
		im[i] = -98.765
	}
	for i := 0; i < nonzero; i++ {
		re[i] = real(x[i])
		im[i] = imag(x[i])
	}
	return re, im
}

// TestBatchPlanBitExact verifies that the planar batch transform is
// bit-identical to FFTPlan.ForwardPruned for every (size, nonzero)
// combination the receiver uses — including the degenerate unpruned and
// single-sample cases. Sizes 16384 and 32768 are SF 11 and 12 at
// zero-pad 8, whose prefixes span two and four cache blocks, so the
// front pass's low blocks read a gathered copy of several blocks.
func TestBatchPlanBitExact(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512, 1024, 4096, 8192, 16384, 32768} {
		for nonzero := 1; nonzero <= n; nonzero <<= 1 {
			t.Run(fmt.Sprintf("n=%d/nonzero=%d", n, nonzero), func(t *testing.T) {
				rng := NewRand(int64(n + nonzero))
				in := make([]complex128, nonzero)
				for i := range in {
					in[i] = rng.ComplexNormal(1)
				}

				ref := make([]complex128, n)
				copy(ref, in)
				Plan(n).ForwardPruned(ref, nonzero)

				re, im := splitPlanar(in, n, nonzero)
				PlanBatch(n, nonzero).Forward(re, im)

				for i := range ref {
					if re[i] != real(ref[i]) || im[i] != imag(ref[i]) {
						t.Fatalf("bin %d: batch (%g, %g) != oracle (%g, %g)",
							i, re[i], im[i], real(ref[i]), imag(ref[i]))
					}
				}
			})
		}
	}
}

// TestForwardBatchStrided checks that a multi-transform batch buffer
// produces the same bits as transform-at-a-time calls.
func TestForwardBatchStrided(t *testing.T) {
	const n, nonzero, batch = 1024, 128, 5
	rng := NewRand(7)
	bp := PlanBatch(n, nonzero)

	re := make([]float64, batch*n)
	im := make([]float64, batch*n)
	refRe := make([]float64, batch*n)
	refIm := make([]float64, batch*n)
	for b := 0; b < batch; b++ {
		for i := 0; i < nonzero; i++ {
			v := rng.ComplexNormal(1)
			re[b*n+i] = real(v)
			im[b*n+i] = imag(v)
		}
		copy(refRe[b*n:(b+1)*n], re[b*n:(b+1)*n])
		copy(refIm[b*n:(b+1)*n], im[b*n:(b+1)*n])
		bp.Forward(refRe[b*n:(b+1)*n], refIm[b*n:(b+1)*n])
	}

	bp.ForwardBatch(re, im, batch, nil)
	for i := range re {
		if re[i] != refRe[i] || im[i] != refIm[i] {
			t.Fatalf("sample %d: batch (%g, %g) != serial (%g, %g)", i, re[i], im[i], refRe[i], refIm[i])
		}
	}
}

// TestFrontPassMatchesScalar pins the front pass's AVX2 kernel against
// frontScalar, its portable body, as transform calls it: z from 4 to
// 32, spans of one and several cache blocks, read through the plan's
// prefix table and through the low blocks' table, in buffers that end
// exactly at the span's last element and sources exactly as long as
// the table's range. It also checks that the wrapper refuses each
// buffer, and the table, one element short.
func TestFrontPassMatchesScalar(t *testing.T) {
	rng := NewRand(10)
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		return x
	}
	for _, z := range []int{4, 8, 16, 32} {
		// A 2048-value prefix covers two blocks, so the low table
		// reaches past the first block.
		bp := NewBatchPlan(2048*z, 2048)
		blk := bp.block
		for _, c := range []struct {
			name       string
			rev        []int32
			base, span int
		}{
			{"rev/one", bp.rev, blk, blk},
			{"rev/three", bp.rev, blk, 3 * blk},
			{"low/one", bp.lowRev, 0, blk},
			{"low/two", bp.lowRev, 0, 2 * blk},
		} {
			what := fmt.Sprintf("z=%d %s", z, c.name)
			n := c.base + c.span
			re, im := fill(n), fill(n)
			vr, vi := fill(len(c.rev)), fill(len(c.rev))
			wantRe, wantIm := append([]float64(nil), re...), append([]float64(nil), im...)
			frontScalar(wantRe, wantIm, c.base, c.span, vr, vi, c.rev, bp.stages[:3])
			if simdAVX2 {
				gotRe, gotIm := append([]float64(nil), re...), append([]float64(nil), im...)
				bp.front(gotRe, gotIm, c.base, c.span, vr, vi, c.rev)
				for i := range gotRe {
					if gotRe[i] != wantRe[i] || gotIm[i] != wantIm[i] {
						t.Fatalf("%s: element %d = (%v, %v), scalar (%v, %v)", what, i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
					}
				}
			}
			short := func(buf string, f func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: %s one element short did not panic", what, buf)
					}
				}()
				f()
			}
			k := len(c.rev)
			short("re", func() { bp.front(re[:n-1], im, c.base, c.span, vr, vi, c.rev) })
			short("im", func() { bp.front(re, im[:n-1], c.base, c.span, vr, vi, c.rev) })
			short("vr", func() { bp.front(re, im, c.base, c.span, vr[:k-1], vi, c.rev) })
			short("vi", func() { bp.front(re, im, c.base, c.span, vr, vi[:k-1], c.rev) })
			short("table", func() { bp.front(re, im, c.base, c.span, vr, vi, c.rev[:n/z-1]) })
		}
	}
}

// TestPowerSpectrumPlanarMatches verifies the planar power kernel
// matches the complex128 one bit for bit.
func TestPowerSpectrumPlanarMatches(t *testing.T) {
	rng := NewRand(3)
	x := make([]complex128, 257)
	re := make([]float64, len(x))
	im := make([]float64, len(x))
	for i := range x {
		x[i] = rng.ComplexNormal(2)
		re[i] = real(x[i])
		im[i] = imag(x[i])
	}
	want := PowerSpectrum(nil, x)
	got := make([]float64, len(x))
	PowerSpectrumPlanar(got, re, im)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bin %d: planar %g != complex %g", i, got[i], want[i])
		}
	}
}

// TestBatchPlanPanics pins the argument contract.
func TestBatchPlanPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("non-pow2 size", func() { NewBatchPlan(100, 4) })
	mustPanic("non-pow2 nonzero", func() { NewBatchPlan(128, 3) })
	mustPanic("nonzero > n", func() { NewBatchPlan(128, 256) })
	bp := PlanBatch(64, 8)
	mustPanic("short input", func() { bp.Forward(make([]float64, 32), make([]float64, 64)) })
	mustPanic("short batch", func() { bp.ForwardBatch(make([]float64, 64), make([]float64, 64), 2, nil) })
	var wrong BinPlan
	wrong.SetWindows(128, []int{5}, 2)
	mustPanic("plan size mismatch", func() { bp.ForwardBatch(make([]float64, 64), make([]float64, 64), 1, &wrong) })
}

func BenchmarkForwardBatch4096Pruned(b *testing.B) {
	bp := PlanBatch(4096, 512)
	re := make([]float64, 4096)
	im := make([]float64, 4096)
	rng := NewRand(1)
	for i := 0; i < 512; i++ {
		v := rng.ComplexNormal(1)
		re[i] = real(v)
		im[i] = imag(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.Forward(re, im)
	}
}

// BenchmarkForwardBatchPlanned times an 8-transform 4096/512 tile (the
// receiver's payload tile at SF 9 and zero-pad 8) under three window
// plans, each with half-width R = 18: full (every bin), dense64 (64
// centres 64 bins apart) and soft16 (16 centres 256 bins apart, the
// plan of a 16-device soft-combining round). The planes are carved
// from one buffer PlaneSkew floats apart, as the receiver's tile is.
// Each iteration restores the tile's input prefixes first, since the
// transform runs in place.
func BenchmarkForwardBatchPlanned(b *testing.B) {
	const n, nonzero, batch, r = 4096, 512, 8, 18
	comb := func(count, step int) *BinPlan {
		centers := make([]int, count)
		for i := range centers {
			centers[i] = i * step
		}
		p := new(BinPlan)
		p.SetWindows(n, centers, r)
		return p
	}
	full := new(BinPlan)
	full.SetFull(n)
	bp := PlanBatch(n, nonzero)
	rng := NewRand(1)
	inRe := make([]float64, batch*nonzero)
	inIm := make([]float64, batch*nonzero)
	for i := range inRe {
		v := rng.ComplexNormal(1)
		inRe[i], inIm[i] = real(v), imag(v)
	}
	buf := make([]float64, 2*batch*n+PlaneSkew)
	re, im := buf[:batch*n], buf[batch*n+PlaneSkew:]
	for _, c := range []struct {
		name string
		plan *BinPlan
	}{
		{"full", full},
		{"dense64", comb(64, 64)},
		{"soft16", comb(16, 256)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for t := 0; t < batch; t++ {
					copy(re[t*n:t*n+nonzero], inRe[t*nonzero:(t+1)*nonzero])
					copy(im[t*n:t*n+nonzero], inIm[t*nonzero:(t+1)*nonzero])
				}
				bp.ForwardBatch(re, im, batch, c.plan)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/transform")
		})
	}
}
