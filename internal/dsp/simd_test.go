package dsp

import (
	"testing"
)

// forceScalar turns the vector kernels off — both the AVX2 and the
// FMA-gated dispatches — for the duration of a test body and restores
// the detected settings afterwards.
func forceScalar(t *testing.T) {
	t.Helper()
	prevAVX2, prevFMA := simdAVX2, simdFMA
	simdAVX2, simdFMA = false, false
	t.Cleanup(func() { simdAVX2, simdFMA = prevAVX2, prevFMA })
}

func randComplexSlice(rng *Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = rng.ComplexNormal(2)
	}
	return out
}

// TestAddIntoMatchesScalar pins the vector AddInto body bit for bit
// against the scalar reference across lengths covering the vector body,
// the odd tail and the scalar-only short cases.
func TestAddIntoMatchesScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(1)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 64, 67, 1024} {
		dst := randComplexSlice(rng, n)
		src := randComplexSlice(rng, n)
		want := append([]complex128(nil), dst...)
		addIntoScalar(want, src)
		AddInto(dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: AddInto[%d] = %v, scalar = %v", n, i, dst[i], want[i])
			}
		}
	}
}

// TestAddFloat64MatchesScalar pins the vector AddFloat64 body bit for
// bit against the scalar reference across lengths covering the vector
// body, all three tail residues and the scalar-only short cases.
func TestAddFloat64MatchesScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(7)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 64, 65, 66, 67, 1024} {
		dst := make([]float64, n)
		src := make([]float64, n)
		for i := 0; i < n; i++ {
			dst[i] = rng.Normal(0, 3)
			src[i] = rng.Normal(0, 3)
		}
		want := append([]float64(nil), dst...)
		addF64Scalar(want, src)
		AddFloat64(dst, src)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: AddFloat64[%d] = %v, scalar = %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestAddFloat64LengthMismatchPanics(t *testing.T) {
	forceScalar(t)
	defer func() {
		if recover() == nil {
			t.Fatal("AddFloat64 with mismatched lengths did not panic")
		}
	}()
	AddFloat64(make([]float64, 4), make([]float64, 3))
}

// TestAxpyIntoMatchesScalar pins the vector AxpyInto body bit for bit
// against the scalar reference, including the complex-product expansion
// order.
func TestAxpyIntoMatchesScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(2)
	for _, n := range []int{0, 1, 2, 3, 5, 8, 33, 512, 513} {
		for _, c := range []complex128{complex(1.7, -0.3), complex(-2.1, 4.9), complex(0.0, 1.0), complex(1, 0)} {
			dst := randComplexSlice(rng, n)
			src := randComplexSlice(rng, n)
			want := append([]complex128(nil), dst...)
			axpyIntoScalar(want, src, c)
			AxpyInto(dst, src, c)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d c=%v: AxpyInto[%d] = %v, scalar = %v", n, c, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestBatchPlanSIMDMatchesScalarBitExact runs the full planar transform
// with the vector kernels on and off over random inputs and requires
// bit-identical spectra — the whole-cascade version of the per-kernel
// checks, covering the fused first stage, paired stages and any odd
// leftover stage across pruning configurations.
func TestBatchPlanSIMDMatchesScalarBitExact(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(3)
	for _, tc := range []struct{ n, nonzero int }{
		{64, 64}, {128, 16}, {256, 32}, {1024, 128}, {4096, 512}, {4096, 4096}, {8192, 1024},
	} {
		bp := NewBatchPlan(tc.n, tc.nonzero)
		re := make([]float64, tc.n)
		im := make([]float64, tc.n)
		for i := 0; i < tc.nonzero; i++ {
			v := rng.ComplexNormal(1)
			re[i] = real(v)
			im[i] = imag(v)
		}
		wantRe := append([]float64(nil), re...)
		wantIm := append([]float64(nil), im...)

		prevAVX2, prevFMA := simdAVX2, simdFMA
		simdAVX2, simdFMA = false, false
		bp.Forward(wantRe, wantIm)
		simdAVX2, simdFMA = prevAVX2, prevFMA

		bp.Forward(re, im)
		for i := range re {
			if re[i] != wantRe[i] || im[i] != wantIm[i] {
				t.Fatalf("n=%d/%d: SIMD transform diverges at bin %d: (%v,%v) vs (%v,%v)",
					tc.n, tc.nonzero, i, re[i], im[i], wantRe[i], wantIm[i])
			}
		}
	}
}
