package dsp

import (
	"fmt"
	"testing"
)

// naiveWindowMask is the reference for BinPlan.SetWindows: a per-bin
// walk of every circular window.
func naiveWindowMask(n int, centers []int, r int) []bool {
	mark := make([]bool, n)
	for _, c := range centers {
		for off := -r; off <= r; off++ {
			mark[WrapIndex(c+off, n)] = true
		}
	}
	return mark
}

// randomPlan draws a window plan over n bins: a few centres, one of
// them pinned near bin 0 or n−1 so its window wraps past the boundary.
func randomPlan(rng *Rand, n int) (centers []int, r int) {
	nc := 1 + rng.Intn(8)
	centers = make([]int, nc)
	for i := range centers {
		centers[i] = rng.Intn(n)
	}
	r = rng.Intn(max(1, n/16))
	if rng.Intn(2) == 0 {
		centers[0] = rng.Intn(r + 1)
	} else {
		centers[0] = n - 1 - rng.Intn(r+1)
	}
	return centers, r
}

// TestBinPlanSetWindowsMatchesNaive checks the span list against a
// per-bin walk, including wrapping windows, overlapping windows and
// unions that cover every bin (which must be recorded as full).
func TestBinPlanSetWindowsMatchesNaive(t *testing.T) {
	rng := NewRand(5)
	var p BinPlan // reused across cases: rebuilding must not leak old spans
	for trial := 0; trial < 200; trial++ {
		n := 1 << (3 + rng.Intn(10))
		centers, r := randomPlan(rng, n)
		if trial%20 == 0 {
			r = n / 2 // covers every bin
		}
		p.SetWindows(n, centers, r)
		want := naiveWindowMask(n, centers, r)
		count := 0
		for i, w := range want {
			if p.Contains(i) != w {
				t.Fatalf("trial %d (n=%d r=%d centres %v): bin %d in plan %v, want %v", trial, n, r, centers, i, p.Contains(i), w)
			}
			if w {
				count++
			}
		}
		if p.Full() != (count == n) {
			t.Fatalf("trial %d: Full() = %v with %d of %d bins", trial, p.Full(), count, n)
		}
	}
}

// TestBinPlanGroupsCoverFoldedBins checks the last-pass group runs: a
// group j of stride h must be listed whenever any of its bins j + m·h
// is in the plan, and runs must be 4-aligned.
func TestBinPlanGroupsCoverFoldedBins(t *testing.T) {
	rng := NewRand(6)
	var p BinPlan
	for trial := 0; trial < 100; trial++ {
		n := 1 << (4 + rng.Intn(9))
		centers, r := randomPlan(rng, n)
		p.SetWindows(n, centers, r)
		for k := range p.groups {
			h := n >> (k + 1)
			listed := make([]bool, h)
			runs := p.groups[k]
			for i := 0; i < len(runs); i += 2 {
				if runs[i]%groupAlign != 0 || runs[i+1]%groupAlign != 0 {
					t.Fatalf("trial %d k=%d: run [%d, %d) not %d-aligned", trial, k, runs[i], runs[i+1], groupAlign)
				}
				for j := runs[i]; j < runs[i+1]; j++ {
					listed[j] = true
				}
			}
			for bin := 0; bin < n; bin++ {
				if p.Contains(bin) && !listed[bin%h] {
					t.Fatalf("trial %d k=%d: plan bin %d needs group %d, not listed", trial, k, bin, bin%h)
				}
			}
		}
	}
}

// TestBinPlanSoftWorkloadSizing pins the plan arithmetic of a 16-device
// SKIP-32 network at SF 9 and zero-pad 8: centres 256 padded bins
// apart, R = int(2·8) + int(0.3·8) = 18. The plan holds 16·37 = 592 of
// 4096 bins, and the last pass (a fused pair of stride 1024) needs 160
// of its 1024 groups: the windows fold onto four 37-bin windows, each
// widened to 40 groups.
func TestBinPlanSoftWorkloadSizing(t *testing.T) {
	const n, r = 4096, 18
	centers := make([]int, 16)
	for i := range centers {
		centers[i] = i * 256
	}
	var p BinPlan
	p.SetWindows(n, centers, r)
	bins := 0
	for i := 0; i < n; i++ {
		if p.Contains(i) {
			bins++
		}
	}
	groups := 0
	for k := 0; k < len(p.groups[1]); k += 2 {
		groups += p.groups[1][k+1] - p.groups[1][k]
	}
	if bins != 592 || groups != 160 {
		t.Fatalf("plan holds %d bins and %d last-pass groups, want 592 and 160", bins, groups)
	}
}

// checkPrunedTransform runs the planned transform of a random symbol
// and requires every plan bin to equal the full transform's bit for
// bit.
func checkPrunedTransform(t *testing.T, n, nonzero int, centers []int, r int, seed int64) {
	t.Helper()
	bp := PlanBatch(n, nonzero)
	var plan BinPlan
	plan.SetWindows(n, centers, r)
	rng := NewRand(seed)
	in := make([]complex128, nonzero)
	for i := range in {
		in[i] = rng.ComplexNormal(1)
	}
	wantRe, wantIm := splitPlanar(in, n, nonzero)
	bp.Forward(wantRe, wantIm)
	re, im := splitPlanar(in, n, nonzero)
	bp.ForwardBatch(re, im, 1, &plan)
	for i := range re {
		if plan.Contains(i) && (re[i] != wantRe[i] || im[i] != wantIm[i]) {
			t.Fatalf("n=%d nonzero=%d r=%d centres %v: plan bin %d = (%v, %v), full transform (%v, %v)",
				n, nonzero, r, centers, i, re[i], im[i], wantRe[i], wantIm[i])
		}
	}
}

// TestPrunedTransformMatchesFullAtPlanBins pins the pruned last pass:
// over SF 7–12 and zero-pad 1–16, random window plans (one window
// always wrapping past bin 0) give bit-identical outputs at every plan
// bin, with the vector kernels and with the scalar bodies.
func TestPrunedTransformMatchesFullAtPlanBins(t *testing.T) {
	for _, scalar := range []bool{false, true} {
		t.Run(fmt.Sprintf("scalar=%v", scalar), func(t *testing.T) {
			if scalar {
				forceScalar(t)
			}
			rng := NewRand(7)
			for sf := 7; sf <= 12; sf++ {
				for zp := 1; zp <= 16; zp <<= 1 {
					nonzero := 1 << sf
					n := nonzero * zp
					for trial := 0; trial < 3; trial++ {
						centers, r := randomPlan(rng, n)
						checkPrunedTransform(t, n, nonzero, centers, r, int64(sf*100+zp*10+trial))
					}
				}
			}
		})
	}
}

// FuzzPrunedTransform explores window plans for the pruned last pass:
// the planned transform must equal the full one at every plan bin.
func FuzzPrunedTransform(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(3), uint16(4095), uint16(18), uint16(256))
	f.Add(int64(2), uint8(12), uint8(0), uint16(3), uint16(40), uint16(1000))
	f.Add(int64(3), uint8(7), uint8(4), uint16(0), uint16(0), uint16(0))
	f.Add(int64(4), uint8(10), uint8(2), uint16(17), uint16(300), uint16(2))
	f.Fuzz(func(t *testing.T, seed int64, sf, zpLog uint8, c0, r, step uint16) {
		s := 7 + int(sf)%6
		nonzero := 1 << s
		n := nonzero << (int(zpLog) % 5)
		rad := int(r) % (n / 2)
		// A comb of centres from c0 with a fixed step: the decoder's
		// candidate layout, plus whatever wrap the fuzzer picks.
		centers := make([]int, 1+int(step)%7)
		for i := range centers {
			centers[i] = int(c0) + i*(int(step)+1)
		}
		checkPrunedTransform(t, n, nonzero, centers, rad, seed)
	})
}

// TestStageKernelsMatchScalar pins the stage kernels with an explicit
// group count against their scalar bodies, over partial runs at
// offsets inside a stage, as the pruned last pass calls them.
func TestStageKernelsMatchScalar(t *testing.T) {
	if !simdAVX2 {
		t.Skip("no AVX2 on this machine; scalar path is the only body")
	}
	rng := NewRand(8)
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		return x
	}
	for _, h := range []int{4, 8, 64, 1024} {
		for trial := 0; trial < 10; trial++ {
			lo := groupAlign * rng.Intn(h/groupAlign)
			count := groupAlign * (1 + rng.Intn((h-lo)/groupAlign))
			n := 4 * h
			re, im := fill(n), fill(n)
			w1r, w1i, w2r, w2i := fill(h), fill(h), fill(2*h), fill(2*h)

			gotRe, gotIm := append([]float64(nil), re...), append([]float64(nil), im...)
			wantRe, wantIm := append([]float64(nil), re...), append([]float64(nil), im...)
			stageAVX2(gotRe, gotIm, lo, 2*h, count, w1r[lo:], w1i[lo:])
			stageScalar(wantRe, wantIm, lo, 2*h, count, w1r[lo:], w1i[lo:])
			for i := range gotRe {
				if gotRe[i] != wantRe[i] || gotIm[i] != wantIm[i] {
					t.Fatalf("stage h=%d lo=%d count=%d: element %d differs", 2*h, lo, count, i)
				}
			}

			gotRe, gotIm = append(gotRe[:0], re...), append(gotIm[:0], im...)
			wantRe, wantIm = append(wantRe[:0], re...), append(wantIm[:0], im...)
			stagePairAVX2(gotRe, gotIm, lo, h, count, w1r[lo:], w1i[lo:], w2r[lo:], w2i[lo:])
			stagePairScalar(wantRe, wantIm, lo, h, count, w1r[lo:], w1i[lo:], w2r[lo:], w2i[lo:])
			for i := range gotRe {
				if gotRe[i] != wantRe[i] || gotIm[i] != wantIm[i] {
					t.Fatalf("stage pair h=%d lo=%d count=%d: element %d differs", h, lo, count, i)
				}
			}
		}
	}
}

// TestBinPlanRowOpsTouchOnlyPlanBins checks the planned power pass and
// the row copy and sum: plan bins equal the unplanned result bit for
// bit, and every other bin keeps its previous contents.
func TestBinPlanRowOpsTouchOnlyPlanBins(t *testing.T) {
	const n, rows = 256, 3
	rng := NewRand(9)
	var plan BinPlan
	plan.SetWindows(n, []int{3, 100, 250}, 7)
	fill := func(m int) []float64 {
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		return x
	}
	const stale = -1.5
	check := func(op string, got, want []float64) {
		t.Helper()
		for i := range got {
			exp := float64(stale)
			if plan.Contains(i % n) {
				exp = want[i]
			}
			if got[i] != exp {
				t.Fatalf("%s: element %d = %v, want %v", op, i, got[i], exp)
			}
		}
	}
	staleRow := func(m int) []float64 {
		x := make([]float64, m)
		for i := range x {
			x[i] = stale
		}
		return x
	}

	re, im := fill(n), fill(n)
	want := make([]float64, n)
	PowerSpectrumPlanar(want, re, im)
	got := staleRow(n)
	plan.PowerSpectrum(got, re, im)
	check("PowerSpectrum", got, want)

	a, b := fill(rows*n), fill(rows*n)
	got = staleRow(rows * n)
	plan.CopyRows(got, a)
	check("CopyRows", got, a)
	sum := append([]float64(nil), a...)
	addF64Scalar(sum, b)
	plan.AddRows(got, b)
	check("AddRows", got, sum)
}
