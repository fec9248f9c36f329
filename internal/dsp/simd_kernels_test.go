package dsp

import (
	"math"
	"testing"
)

// Per-kernel scalar-vs-vector equivalence gates for the PR 9 kernels.
// Every test runs the dispatching entry point (vector body on this
// machine) against the scalar reference body on identical inputs and
// requires bit-identical output — the contract simd.go documents.
// Lengths are chosen to cover the vector main loop, every tail residue
// and the scalar-only short cases.

// TestScaleIntoMatchesScalar pins the vector ScaleInto body bit for bit
// against the scalar reference, sharing AxpyInto's fused product
// expansion (the materialize ≡ accumulate oracles depend on the two
// agreeing).
func TestScaleIntoMatchesScalar(t *testing.T) {
	if !simdFMA {
		t.Skip("no FMA on this machine; scalar path is the only body")
	}
	rng := NewRand(11)
	for _, n := range []int{0, 1, 2, 3, 5, 8, 33, 512, 513} {
		for _, c := range []complex128{complex(1.7, -0.3), complex(-2.1, 4.9), complex(0, 1), complex(1, 0)} {
			src := randComplexSlice(rng, n)
			dst := make([]complex128, n)
			want := make([]complex128, n)
			scaleIntoScalar(want, src, c)
			ScaleInto(dst, src, c)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d c=%v: ScaleInto[%d] = %v, scalar = %v", n, c, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestAddScaledFloatsMatchesScalar pins the fused noise-injection add
// bit for bit against the scalar reference across vector-body, odd-tail
// and scalar-only lengths.
func TestAddScaledFloatsMatchesScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(12)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 256, 257} {
		for _, s := range []float64{0.70710678, -1.5, 0, 3.25} {
			dst := randComplexSlice(rng, n)
			src := make([]float64, 2*n)
			for i := range src {
				src[i] = rng.Normal(0, 1)
			}
			want := append([]complex128(nil), dst...)
			addScaledFloatsScalar(want, src, s)
			AddScaledFloats(dst, src, s)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d s=%v: AddScaledFloats[%d] = %v, scalar = %v", n, s, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestDechirpMatchesScalar pins the planar dechirp product bit for bit
// against the scalar reference, covering the quad main loop, every
// sub-quad tail residue and the scalar-only short cases.
func TestDechirpMatchesScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(13)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 64, 67, 1024} {
		sym := randComplexSlice(rng, n)
		down := randComplexSlice(rng, n)
		re := make([]float64, n)
		im := make([]float64, n)
		wantRe := make([]float64, n)
		wantIm := make([]float64, n)
		dechirpScalar(wantRe, wantIm, sym, down)
		Dechirp(re, im, sym, down)
		for i := 0; i < n; i++ {
			if re[i] != wantRe[i] || im[i] != wantIm[i] {
				t.Fatalf("n=%d: Dechirp[%d] = (%v,%v), scalar = (%v,%v)",
					n, i, re[i], im[i], wantRe[i], wantIm[i])
			}
		}
	}
}

// TestMaxPowerMatchesScalar pins the window-power scan bit for bit
// against the scalar reference. Lengths 4–7 matter most: they exercise
// the single-quad vector body plus every tail residue — the payload
// tracker's ±half windows are exactly this size.
func TestMaxPowerMatchesScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(14)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 64, 67, 1024} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := 0; i < n; i++ {
			re[i] = rng.Normal(0, 2)
			im[i] = rng.Normal(0, 2)
		}
		want := maxPowerScalar(re, im)
		got := MaxPower(re, im)
		if got != want {
			t.Fatalf("n=%d: MaxPower = %v, scalar = %v", n, got, want)
		}
	}
}

// TestSynthChains8MatchesScalar pins the interleaved-chain synthesis
// kernel bit for bit against the scalar reference: emitted samples and
// the continued chain state must both match, across step counts
// covering single steps through full renormalization blocks.
func TestSynthChains8MatchesScalar(t *testing.T) {
	if !simdFMA {
		t.Skip("no FMA on this machine; scalar path is the only body")
	}
	rng := NewRand(15)
	seedState := func() SynthChainState {
		var st SynthChainState
		for c := 0; c < SynthChainCount; c++ {
			// Unit-magnitude oscillator and step-factor seeds, as the
			// synthesizer provides.
			z := rng.UniformPhase()
			d := rng.UniformPhase()
			st[c], st[SynthChainCount+c] = real(z), imag(z)
			st[2*SynthChainCount+c], st[3*SynthChainCount+c] = real(d), imag(d)
		}
		return st
	}
	dL := complex(0.9999999973015135, 7.346410206643587e-05)
	for _, steps := range []int{1, 2, 3, 7, 16, 128} {
		stV := seedState()
		stS := stV
		dstV := make([]complex128, SynthChainCount*steps)
		dstS := make([]complex128, SynthChainCount*steps)
		SynthChains8(dstV, &stV, dL, 0.125, steps)
		synthChains8Scalar(dstS, &stS, real(dL), imag(dL), 0.125, steps)
		for i := range dstV {
			if dstV[i] != dstS[i] {
				t.Fatalf("steps=%d: SynthChains8[%d] = %v, scalar = %v", steps, i, dstV[i], dstS[i])
			}
		}
		if stV != stS {
			t.Fatalf("steps=%d: continued chain state diverges:\nvector %v\nscalar %v", steps, stV, stS)
		}
	}
}

// TestNormBatchSIMDMatchesScalarBody pins the fused AVX2 ziggurat fill
// against the portable normBatchScalar body: identical streams, bit-
// identical output, for lengths crossing the kernel's quad and block
// boundaries and the sequential sub-8 fallback.
func TestNormBatchSIMDMatchesScalarBody(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	for _, n := range []int{1, 7, 8, 9, 12, 100, 511, 512, 513, 2048, 4099} {
		stV := StreamAt(99, 0)
		stS := stV
		got := make([]float64, n)
		want := make([]float64, n)
		stV.NormBatch(got)
		stS.normBatchScalar(want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: NormBatch[%d] = %v, scalar body = %v", n, i, got[i], want[i])
			}
		}
		if stV != stS {
			t.Fatalf("n=%d: generator state diverges after fill", n)
		}
	}
}

// TestKernelsZeroAlloc gates the new hot-path entry points at zero
// allocations per call — these run millions of times per simulated
// round, and a single boxed argument or escaped slice would show up as
// GC pressure across the whole network simulation.
func TestKernelsZeroAlloc(t *testing.T) {
	n := 256
	rng := NewRand(16)
	dst := randComplexSlice(rng, n)
	src := randComplexSlice(rng, n)
	re := make([]float64, n)
	im := make([]float64, n)
	fl := make([]float64, 2*n)
	for i := range fl {
		fl[i] = rng.Normal(0, 1)
	}
	var st SynthChainState
	for c := 0; c < SynthChainCount; c++ {
		st[c] = 1
		st[2*SynthChainCount+c] = 1
	}
	chainDst := make([]complex128, SynthChainCount*16)
	var lanes [ZigLanes]Stream
	var laneSts [ZigLanes]*Stream
	var laneDsts [ZigLanes][]float64
	for l := range lanes {
		lanes[l] = StreamAt(16, uint64(l))
		laneSts[l], laneDsts[l] = &lanes[l], make([]float64, 2*n+l)
	}
	terms := make([]AxpyTerm, 4)
	for k := range terms {
		terms[k] = AxpyTerm{Src: randComplexSlice(rng, n), C: complex(0.5, float64(k))}
	}
	sink := 0.0
	cases := []struct {
		name string
		fn   func()
	}{
		{"AddInto", func() { AddInto(dst, src) }},
		{"AxpyInto", func() { AxpyInto(dst, src, complex(0.5, -0.25)) }},
		{"AxpyMultiInto", func() { AxpyMultiInto(dst, terms) }},
		{"ScaleInto", func() { ScaleInto(dst, src, complex(0.5, -0.25)) }},
		{"AddScaledFloats", func() { AddScaledFloats(dst, fl, 0.75) }},
		{"Dechirp", func() { Dechirp(re, im, dst, src) }},
		{"MaxPower", func() { sink += MaxPower(re, im) }},
		{"SynthChains8", func() { SynthChains8(chainDst, &st, complex(1, 0), 0.5, 16) }},
		{"NormBatchLanes", func() { NormBatchLanes(laneSts[:], laneDsts[:]) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, allocs)
		}
	}
	_ = sink
}

// TestAxpyMultiMatchesSequential pins the multi-source accumulate to
// its definition: AxpyMultiInto over a term list is bit-identical to
// one AxpyInto call per term, in term order — on the vector body and on
// the scalar body. Lengths cover the empty and scalar-only cases, the
// single-complex tail, leftover pairs and the eight-complex main loop
// in every combination; term counts cover every pass width (1–4) and
// the packed passes of longer lists (5 → 3+2, 8 → 4+4). Coefficients
// of exactly 1 and sources holding ±0 are the template-symbol case the
// fused receive relies on.
func TestAxpyMultiMatchesSequential(t *testing.T) {
	check := func(t *testing.T) {
		rng := NewRand(17)
		coeffs := []complex128{1, complex(0.8, -0.6), complex(-2.5, 0.125), complex(0, 1), complex(1.5, 0)}
		for _, n := range []int{0, 1, 2, 3, 7, 8, 15, 17, 511, 512, 513} {
			for m := 1; m <= 8; m++ {
				terms := make([]AxpyTerm, m)
				for k := range terms {
					src := randComplexSlice(rng, n)
					for i := range src {
						switch (i + k) % 7 {
						case 0:
							src[i] = complex(math.Copysign(0, -1), 0)
						case 3:
							src[i] = complex(real(src[i]), math.Copysign(0, -1))
						case 5:
							src[i] = 0
						}
					}
					terms[k] = AxpyTerm{Src: src, C: coeffs[(k+n)%len(coeffs)]}
				}
				dst := randComplexSlice(rng, n)
				want := append([]complex128(nil), dst...)
				for _, tm := range terms {
					AxpyInto(want, tm.Src, tm.C)
				}
				AxpyMultiInto(dst, terms)
				for i := range dst {
					if !sameBits(dst[i], want[i]) {
						t.Fatalf("n=%d terms=%d: AxpyMultiInto[%d] = %v, sequential AxpyInto = %v", n, m, i, dst[i], want[i])
					}
				}
			}
		}
	}
	t.Run("vector", func(t *testing.T) {
		if !simdFMA {
			t.Skip("CPU without FMA; the scalar body is the only body")
		}
		check(t)
	})
	t.Run("scalar", func(t *testing.T) {
		forceScalar(t)
		check(t)
	})
}

// sameBits compares two complex values bit for bit, telling +0 from −0.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

func TestAxpyMultiLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AxpyMultiInto with a short source did not panic")
		}
	}()
	AxpyMultiInto(make([]complex128, 4), []AxpyTerm{{Src: make([]complex128, 4), C: 1}, {Src: make([]complex128, 3), C: 1}})
}
