package dsp

import (
	"fmt"
	"slices"
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

// TestBinPlanGroupsCoverFoldedBins checks the group runs of every
// stride h >= groupAlign: the runs are sorted, disjoint, non-adjacent
// and groupAlign-aligned, and they hold exactly the aligned quads of
// groups j that contain some plan bin's residue b mod h — every needed
// group, and no unneeded one beyond the alignment widening.
func TestBinPlanGroupsCoverFoldedBins(t *testing.T) {
	rng := NewRand(6)
	var p BinPlan
	for trial := 0; trial < 100; trial++ {
		n := 1 << (4 + rng.Intn(9))
		centers, r := randomPlan(rng, n)
		p.SetWindows(n, centers, r)
		if want := Log2(n) - Log2(groupAlign); len(p.groups) != want {
			t.Fatalf("trial %d (n=%d): %d run lists, want one per stride >= %d (%d)", trial, n, len(p.groups), groupAlign, want)
		}
		for k := range p.groups {
			h := n >> (k + 1)
			if runs, all := p.groupRuns(h); all != p.Full() || (!all && !slices.Equal(runs, p.groups[k])) {
				t.Fatalf("trial %d k=%d: groupRuns(%d) does not return the stride's list", trial, k, h)
			}
			needed := make([]bool, h)
			for bin := 0; bin < n; bin++ {
				if p.Contains(bin) {
					needed[bin%h] = true
				}
			}
			listed := make([]bool, h)
			runs := p.groups[k]
			for i := 0; i < len(runs); i += 2 {
				lo, hi := runs[i], runs[i+1]
				if lo%groupAlign != 0 || hi%groupAlign != 0 || lo >= hi || hi > h || (i > 0 && lo <= runs[i-1]) {
					t.Fatalf("trial %d k=%d: run [%d, %d) of %v is not an aligned, sorted, maximal run of [0, %d)", trial, k, lo, hi, runs, h)
				}
				for j := lo; j < hi; j++ {
					listed[j] = true
				}
			}
			for q := 0; q < h; q += groupAlign {
				want := false
				for _, nd := range needed[q : q+groupAlign] {
					want = want || nd
				}
				for j := q; j < q+groupAlign; j++ {
					if listed[j] != want {
						t.Fatalf("trial %d k=%d (stride %d): group %d listed %v, its quad needed %v", trial, k, h, j, listed[j], want)
					}
				}
			}
		}
		for h := 1; h < groupAlign; h <<= 1 {
			if _, all := p.groupRuns(h); !all {
				t.Fatalf("trial %d: stride %d below the vector width is pruned", trial, h)
			}
		}
	}
}

// TestBinPlanSoftWorkloadSizing pins the plan arithmetic of a 16-device
// SKIP-32 network at SF 9 and zero-pad 8: centres 256 padded bins
// apart, R = int(2·8) + int(0.3·8) = 18. The plan holds 16·37 = 592 of
// 4096 bins. Folded onto the strides of the 4096/512 cascade's pair
// passes, it needs every group at stride 16, 40 of 64 at stride 64, 40
// of 256 at stride 256 and 160 of 1024 at stride 1024 (four 37-bin
// windows, each widened to 40 groups). Per transform the pair passes
// then run 1024 + 640 + 160 + 160 = 1984 of 4096 groups in
// 4·(1 + 2 + 2) + 5 = 25 kernel calls: the three in-block passes once
// per run in each of four cache blocks, the full-array pass once per
// run.
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
	if bins != 592 {
		t.Fatalf("plan holds %d bins, want 592", bins)
	}
	for _, c := range []struct{ h, groups, runs int }{
		{16, 16, 1}, {64, 40, 2}, {256, 40, 2}, {1024, 160, 5},
	} {
		runs, all := p.groupRuns(c.h)
		groups := 0
		for k := 0; k < len(runs); k += 2 {
			groups += runs[k+1] - runs[k]
		}
		if all || groups != c.groups || len(runs)/2 != c.runs {
			t.Errorf("stride %d: %d groups in %d runs (all %v), want %d in %d", c.h, groups, len(runs)/2, all, c.groups, c.runs)
		}
	}
}

// TestBinPlanRebuildAllocatesNothing checks that a plan's storage is
// reused across rebuilds: once grown, switching between sparse, dense
// and full plans allocates nothing.
func TestBinPlanRebuildAllocatesNothing(t *testing.T) {
	const n, r = 4096, 18
	soft, dense := make([]int, 16), make([]int, 64)
	for i := range soft {
		soft[i] = i * 256
	}
	for i := range dense {
		dense[i] = i * 64
	}
	var p BinPlan
	rebuild := func() {
		p.SetWindows(n, soft, r)
		p.SetWindows(n, dense, r)
		p.SetFull(n)
		p.SetWindows(512, soft, 2)
	}
	rebuild()
	if allocs := testing.AllocsPerRun(20, rebuild); allocs != 0 {
		t.Fatalf("rebuilding a plan allocates %v times", allocs)
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

// TestPrunedTransformMatchesFullAtPlanBins pins the pruned cascade,
// every pass of which runs only its plan's groups: over SF 7–12 and
// zero-pad 1–16, random window plans (one window always wrapping past
// bin 0) and the decoder's comb of 16 evenly spaced candidates give
// bit-identical outputs at every plan bin, with the vector kernels and
// with the scalar bodies.
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
					// R = int(2·zp) + int(0.3·zp), the decoder's window.
					comb := make([]int, 16)
					for i := range comb {
						comb[i] = i * n / 16
					}
					checkPrunedTransform(t, n, nonzero, comb, 2*zp+3*zp/10, int64(sf*100+zp*10+9))
				}
			}
		})
	}
}

// FuzzPrunedTransform explores window plans for the pruned cascade:
// the planned transform must equal the full one at every plan bin.
func FuzzPrunedTransform(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(3), uint16(4095), uint16(18), uint16(256))
	f.Add(int64(2), uint8(12), uint8(0), uint16(3), uint16(40), uint16(1000))
	f.Add(int64(3), uint8(7), uint8(4), uint16(0), uint16(0), uint16(0))
	f.Add(int64(4), uint8(10), uint8(2), uint16(17), uint16(300), uint16(2))
	// SF 11 and 12 at zero-pad 8: prefixes over two and four cache
	// blocks, read by the front pass's low blocks from a gathered copy.
	f.Add(int64(5), uint8(4), uint8(3), uint16(100), uint16(18), uint16(1023))
	f.Add(int64(6), uint8(5), uint8(3), uint16(32700), uint16(40), uint16(2047))
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

// TestStageKernelsMatchScalar pins the stage kernels against their
// scalar bodies as the pruned passes call them: partial runs at offsets
// inside a stage, walked over 1, 2 and 5 sub-blocks, in buffers that
// end exactly at the last sub-block's last element. It also checks
// that the dispatching wrappers bound-check the last sub-block.
func TestStageKernelsMatchScalar(t *testing.T) {
	rng := NewRand(8)
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 1)
		}
		return x
	}
	same := func(what string, gotRe, gotIm, wantRe, wantIm []float64) {
		t.Helper()
		for i := range gotRe {
			if gotRe[i] != wantRe[i] || gotIm[i] != wantIm[i] {
				t.Fatalf("%s: element %d differs", what, i)
			}
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: a buffer one element short did not panic", what)
			}
		}()
		f()
	}
	for _, h := range []int{4, 8, 64, 1024} {
		for _, blocks := range []int{1, 2, 5} {
			for trial := 0; trial < 6; trial++ {
				lo := groupAlign * rng.Intn(h/groupAlign)
				count := groupAlign * (1 + rng.Intn((h-lo)/groupAlign))
				if trial == 0 {
					lo, count = h-groupAlign, groupAlign // last quad of each sub-block
				}
				w1r, w1i, w2r, w2i := fill(h), fill(h), fill(2*h), fill(2*h)
				what := fmt.Sprintf("h=%d blocks=%d lo=%d count=%d", h, blocks, lo, count)

				// Single stage of size 2h: sub-blocks 2h apart.
				n := lo + (blocks-1)*2*h + h + count
				re, im := fill(n), fill(n)
				wantRe, wantIm := append([]float64(nil), re...), append([]float64(nil), im...)
				stageScalar(wantRe, wantIm, lo, h, count, blocks, w1r[lo:], w1i[lo:])
				if simdAVX2 {
					gotRe, gotIm := append([]float64(nil), re...), append([]float64(nil), im...)
					stageAVX2(gotRe, gotIm, lo, h, count, blocks, w1r[lo:], w1i[lo:])
					same("stage "+what, gotRe, gotIm, wantRe, wantIm)
				}
				mustPanic("stage "+what, func() {
					stage(re[:n-1], im[:n-1], lo, h, count, blocks, w1r[lo:], w1i[lo:])
				})

				// Fused pair of sizes 2h and 4h: sub-blocks 4h apart.
				n = lo + (blocks-1)*4*h + 3*h + count
				re, im = fill(n), fill(n)
				wantRe, wantIm = append([]float64(nil), re...), append([]float64(nil), im...)
				stagePairScalar(wantRe, wantIm, lo, h, count, blocks, w1r[lo:], w1i[lo:], w2r[lo:], w2i[lo:])
				if simdAVX2 {
					gotRe, gotIm := append([]float64(nil), re...), append([]float64(nil), im...)
					stagePairAVX2(gotRe, gotIm, lo, h, count, blocks, w1r[lo:], w1i[lo:], w2r[lo:], w2i[lo:])
					same("stage pair "+what, gotRe, gotIm, wantRe, wantIm)
				}
				mustPanic("stage pair "+what, func() {
					stagePair(re[:n-1], im[:n-1], lo, h, count, blocks, w1r[lo:], w1i[lo:], w2r[lo:], w2i[lo:])
				})
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
