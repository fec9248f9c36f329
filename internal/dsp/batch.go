package dsp

import (
	"fmt"
	"sync"
)

// BatchPlan runs the receiver's zero-pad-pruned forward FFT over a
// planar (split real/imaginary, contiguous-stride) sample layout, one
// pre-planned pass per transform. It exists for the batched receive
// path: a frame's candidate-symbol transforms all share one plan, and
// the planar float64 layout keeps the butterfly inner loops free of
// bounds checks and friendly to vectorization.
//
// Everything that the per-call pruned transform recomputes is hoisted
// into the plan:
//
//   - The prefix bit reversal is a table (rev) the transform reads
//     through instead of permuting the buffer (ForwardPruned re-derives
//     the permutation and swaps in place on every call).
//   - Twiddle factors are repacked per butterfly stage into compact
//     planar tables, so every stage reads its twiddles at unit stride
//     instead of striding through the full-size table.
//   - The zero-pad broadcast, the prefix permutation and the first
//     three butterfly stages are one front pass: each 8z-element
//     sub-block reads its eight prefix values through rev, runs the
//     stages of sizes 2z, 4z and 8z in registers and stores every
//     element once.
//
// Stages are additionally executed cache-blocked: the front pass and
// every stage whose butterflies fit inside a block of blockElems
// elements run block-by-block while the block is resident in L1,
// leaving only the last log2(n/block) stages as full-array passes.
// ForwardBatch can prune every pass after the front pass, in-block and
// full-array, to the butterfly groups a BinPlan's bins need.
// Reordering butterfly execution never changes results — each
// butterfly's operands and operation order are identical to FFTPlan's
// radix-2 cascade, so a BatchPlan transform is bit-identical to
// ForwardPruned on the same input (the oracle the tests enforce).
//
// A BatchPlan is safe for concurrent use; transforms only read it.
type BatchPlan struct {
	n       int
	nonzero int
	z       int     // zero-pad factor n/nonzero
	block   int     // cache-block span in elements (power of two)
	rev     []int32 // rev[i]: i bit-reversed over log2(nonzero) bits
	stages  []batchStage

	// Front pass state, set when nonzero >= 8 and z > 1. The low
	// blocks' span overlaps the natural-order prefix the other blocks
	// read, so before any block is written the transform gathers every
	// gather-th prefix value — the only ones the low blocks read — into
	// per-call scratch, and the low blocks read that copy through
	// lowRev. frontTw packs the three front stages' twiddles per group
	// of four for frontAVX2 (z >= 4).
	low     int
	gather  int
	lowRev  []int32
	frontTw []float64
}

// batchStage is one butterfly stage's compact twiddle table:
// twr[j] + i·twi[j] = e^{-2πij/size} for j in [0, size/2). The values
// are copied verbatim from the FFTPlan twiddle table (not recomputed
// from a different trig expression), keeping them bit-identical.
type batchStage struct {
	size     int
	twr, twi []float64
}

// PlaneSkew is the gap, in float64s, a planar buffer carved from one
// allocation leaves between its real and imaginary planes. Planes of a
// power-of-two length placed back to back start a multiple of 4 KiB
// apart, so re[i] and im[i] share their low 12 address bits, and the
// CPU's store-to-load check, which compares only those bits, makes a
// butterfly's loads of one plane wait on its stores to the other (4K
// aliasing). Five cache lines move the imaginary plane off that alias.
const PlaneSkew = 40

// blockElems is the cache-block span: 1024 complex elements = 16 KiB of
// planar floats, comfortably inside a 32 KiB L1d alongside the twiddle
// tables.
const blockElems = 1024

// NewBatchPlan builds a planar pruned-FFT plan for transforms of size n
// whose inputs have only the first nonzero samples populated. Both must
// be powers of two with nonzero <= n. nonzero == n degenerates to an
// unpruned planar transform.
func NewBatchPlan(n, nonzero int) *BatchPlan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: batch FFT size %d is not a power of two", n))
	}
	if !IsPow2(nonzero) || nonzero > n {
		panic(fmt.Sprintf("dsp: batch FFT nonzero prefix %d must be a power of two <= %d", nonzero, n))
	}
	src := Plan(n)
	bp := &BatchPlan{n: n, nonzero: nonzero, z: n / nonzero}

	// Prefix bit reversal as a table. For i < nonzero the full-size
	// permutation satisfies perm[i] = rev_m(i)·z with m = nonzero, so
	// rev_m(i) = perm[i]/z (see FFTPlan.ForwardPruned).
	bp.rev = make([]int32, nonzero)
	for i := range bp.rev {
		bp.rev[i] = int32(src.perm[i] / bp.z)
	}

	// Compact per-stage twiddles for every stage the pruned cascade
	// runs: sizes 2z, 4z, …, n.
	for size := 2 * bp.z; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		st := batchStage{
			size: size,
			twr:  make([]float64, half),
			twi:  make([]float64, half),
		}
		for j := 0; j < half; j++ {
			w := src.twiddles[j*step]
			st.twr[j] = real(w)
			st.twi[j] = imag(w)
		}
		bp.stages = append(bp.stages, st)
	}

	// A block holds whole front-pass sub-blocks (8z elements) where
	// the transform is large enough to have them.
	bp.block = min(n, max(blockElems, 8*bp.z))
	if !bp.hasFront() {
		return bp
	}

	// The low blocks cover [0, low·block) ⊇ [0, nonzero). Their
	// sub-blocks read rev[k] for k < g = low·block/z, and for those k
	// rev_m(k) = c·rev_g(k) with c = nonzero/g (k's top log2(c) bits are
	// zero), so the values they read are exactly every c-th prefix
	// value, and the gathered copy x[c·j], j < g, is read through
	// lowRev[k] = rev[k]/c.
	bp.low = (nonzero + bp.block - 1) / bp.block
	g := bp.low * bp.block / bp.z
	bp.gather = nonzero / g
	bp.lowRev = make([]int32, g)
	for k := range bp.lowRev {
		bp.lowRev[k] = bp.rev[k] / int32(bp.gather)
	}

	if z := bp.z; z >= 4 {
		// frontAVX2's twiddle layout: for each group of four j, the
		// fourteen planar quads w1[j], w2[j], w2[z+j], w3[j], w3[z+j],
		// w3[2z+j], w3[3z+j] (real quad, then imaginary quad), read
		// front to back with one pointer.
		w1, w2, w3 := &bp.stages[0], &bp.stages[1], &bp.stages[2]
		quads := [][2][]float64{
			{w1.twr, w1.twi},
			{w2.twr, w2.twi}, {w2.twr[z:], w2.twi[z:]},
			{w3.twr, w3.twi}, {w3.twr[z:], w3.twi[z:]},
			{w3.twr[2*z:], w3.twi[2*z:]}, {w3.twr[3*z:], w3.twi[3*z:]},
		}
		bp.frontTw = make([]float64, 0, 14*z)
		for q := 0; q < z; q += 4 {
			for _, w := range quads {
				bp.frontTw = append(bp.frontTw, w[0][q:q+4]...)
				bp.frontTw = append(bp.frontTw, w[1][q:q+4]...)
			}
		}
	}
	return bp
}

// hasFront reports whether transforms start with the front pass: the
// prefix holds at least one 8-value sub-block and is zero-padded. A
// plan without it (z = 1, or fewer than eight nonzero values) starts
// with permutePrefix and runs every stage as a pass.
func (bp *BatchPlan) hasFront() bool { return bp.nonzero >= 8 && bp.z > 1 }

// Forward computes the in-place pruned forward DFT of the planar signal
// (re, im), both of length Size(). Only the plan's nonzero prefix is
// read as input; the tail is treated as zero regardless of its contents
// and is fully overwritten. The result is bit-identical to
// FFTPlan.ForwardPruned on the equivalent complex128 buffer.
func (bp *BatchPlan) Forward(re, im []float64) {
	if len(re) != bp.n || len(im) != bp.n {
		panic(fmt.Sprintf("dsp: batch FFT input lengths %d/%d do not match plan size %d", len(re), len(im), bp.n))
	}
	bp.ForwardBatch(re, im, 1, nil)
}

// ForwardBatch computes batch consecutive pruned transforms over the
// planar buffers re and im, each transform occupying one Size()-long
// stride. len(re) and len(im) must be at least batch·Size().
//
// out, when non-nil, names the only output bins the caller reads: every
// butterfly pass after the front pass then runs only the groups whose
// outputs reach a bin in out (BinPlan's group runs for the pass's
// stride), and every bin outside out is left unspecified. After the
// stage of size s, offset t of each s-long sub-block holds bin t of one
// decimated subsequence, and final bin k reads offset k mod s of every
// sub-block; so a pass with stride h is needed only at groups
// j ≡ k (mod h) for some k in out. A needed group reads only outputs of
// needed groups of the pass before (j in out mod h implies j mod h/2 in
// out mod h/2), so bins inside out are bit-identical to the unplanned
// transform. Groups run only to widen a run to the vector width may
// read stale values, but their outputs reach no bin in out.
func (bp *BatchPlan) ForwardBatch(re, im []float64, batch int, out *BinPlan) {
	n := bp.n
	if len(re) < batch*n || len(im) < batch*n {
		panic(fmt.Sprintf("dsp: batch FFT buffers %d/%d too short for %d transforms of %d", len(re), len(im), batch, n))
	}
	if out != nil && out.n != n {
		panic(fmt.Sprintf("dsp: bin plan size %d does not match batch FFT size %d", out.n, n))
	}
	if out.Full() {
		out = nil
	}
	// The low blocks' gathered prefix values, one copy per transform
	// in turn, lent from the scratch free list for the whole call.
	var buf, gr, gi []float64
	if g := len(bp.lowRev); g > 0 {
		buf = BorrowFloat64(2 * g)
		gr, gi = buf[:g:g], buf[g:]
	}
	for b := 0; b < batch; b++ {
		bp.transform(re[b*n:(b+1)*n], im[b*n:(b+1)*n], gr, gi, out)
	}
	if buf != nil {
		ReturnFloat64(buf)
	}
}

// transform runs one pruned transform in place; gr and gi are the low
// blocks' gather scratch (len(bp.lowRev) each) when the plan has a
// front pass.
func (bp *BatchPlan) transform(re, im, gr, gi []float64, out *BinPlan) {
	if bp.nonzero == 1 {
		// Single nonzero input: the DFT is a constant broadcast.
		vr, vi := re[0], im[0]
		for i := range re {
			re[i] = vr
			im[i] = vi
		}
		return
	}

	// Cache-blocked stages. Each block runs the front pass (or, without
	// one, its first stages) and then every later stage that fits in a
	// block while the block is resident. Blocks run back to front, so
	// every block above the low ones reads the prefix before a low
	// block overwrites it. Within a block — and again for the
	// full-array tail — consecutive stages after the front pass run
	// pairwise fused: one pass over the data performs both stages'
	// butterflies with the intermediate values held in registers,
	// halving loads and stores. The front pass writes every element and
	// runs whole; every later pass runs only out's groups for its
	// stride.
	first := 0
	if bp.hasFront() {
		// Gather before any block is written: the low blocks overwrite
		// the prefix every block reads.
		c := bp.gather
		for j := range gr {
			gr[j] = re[j*c]
			gi[j] = im[j*c]
		}
		first = 3
	} else {
		bp.permutePrefix(re, im)
	}
	inBlock := 0
	for inBlock < len(bp.stages) && bp.stages[inBlock].size <= bp.block {
		inBlock++
	}
	for base := bp.n - bp.block; base >= 0; base -= bp.block {
		if first > 0 {
			if base < bp.low*bp.block {
				bp.front(re, im, base, bp.block, gr, gi, bp.lowRev)
			} else {
				bp.front(re, im, base, bp.block, re, im, bp.rev)
			}
		}
		bp.passes(re, im, base, bp.block, first, inBlock, out)
	}
	// Remaining stages span more than one block: full-array passes.
	bp.passes(re, im, 0, bp.n, inBlock, len(bp.stages), out)
}

// permutePrefix is the transform's start without a front pass. At
// z = 1 it bit-reverses the prefix in place through rev. At z > 1 the
// prefix holds fewer than eight values: they are read into locals, and
// z-block i is filled with value rev[i] (the zero-pad broadcast of the
// permuted prefix, as in ForwardPruned).
func (bp *BatchPlan) permutePrefix(re, im []float64) {
	z := bp.z
	if z == 1 {
		for i, j := range bp.rev {
			if i < int(j) {
				re[i], re[j] = re[j], re[i]
				im[i], im[j] = im[j], im[i]
			}
		}
		return
	}
	var vr, vi [8]float64
	copy(vr[:], re[:bp.nonzero])
	copy(vi[:], im[:bp.nonzero])
	for i, k := range bp.rev {
		br := re[i*z : i*z+z]
		bi := im[i*z : i*z+z]
		for j := range br {
			br[j] = vr[k]
			bi[j] = vi[k]
		}
	}
}

// passes runs stages [si, end) over [base, base+span), pairwise fused
// with a single stage left over when the count is odd.
func (bp *BatchPlan) passes(re, im []float64, base, span, si, end int, out *BinPlan) {
	for ; si+1 < end; si += 2 {
		bp.stagePairSpan(re, im, base, span, si, out)
	}
	if si < end {
		bp.stageSpan(re, im, base, span, si, out)
	}
}

// front runs the front pass over [base, base+span), a whole number of
// 8z-element sub-blocks: the sub-block at sb reads its eight prefix
// values (vr, vi)[rev[sb/z+k]], k = 0…7 — the z-blocks' values of the
// zero-pad broadcast in bit-reversed order — and runs the stages of
// sizes 2z, 4z and 8z over them in registers, storing each element
// once. rev is a bit-reversal table whose values index (vr, vi): the
// plan's rev over the natural-order prefix, or lowRev over the low
// blocks' gathered copy. One AVX2 call covers the span at z >= 4.
func (bp *BatchPlan) front(re, im []float64, base, span int, vr, vi []float64, rev []int32) {
	z := bp.z
	// Bounds the vector body relies on: its last stores, its last table
	// entry and the largest value rev can hold (rev permutes
	// [0, len(rev))). The scalar body's slicing checks the same.
	_, _ = re[base+span-1], im[base+span-1]
	_ = rev[(base+span)/z-1]
	_, _ = vr[len(rev)-1], vi[len(rev)-1]
	if simdAVX2 && z >= 4 {
		// Vector lanes run the scalar body's expressions on four
		// consecutive j — bit-exact with it (see simd.go).
		frontAVX2(re, im, base, span, z, vr, vi, rev, bp.frontTw)
		return
	}
	frontScalar(re, im, base, span, vr, vi, rev, bp.stages[:3])
}

// frontScalar is the front pass's portable body and the oracle of
// frontAVX2. st holds the stages of sizes 2z, 4z and 8z. Per offset j
// in [0, z) of a sub-block, the size-2z butterflies pair the broadcast
// values (v0, v1), (v2, v3), (v4, v5), (v6, v7) with twiddle w1[j];
// the size-4z ones pair offsets j and 2z+j (w2[j]) and z+j and 3z+j
// (w2[z+j]) of each half; the size-8z ones pair offsets p and 4z+p
// (w3[p]) for p = j, z+j, 2z+j, 3z+j.
func frontScalar(re, im []float64, base, span int, vr, vi []float64, rev []int32, st []batchStage) {
	z := st[0].size >> 1
	w1r, w1i := st[0].twr[:z], st[0].twi[:z]
	w2r, w2i := st[1].twr[:2*z], st[1].twi[:2*z]
	w3r, w3i := st[2].twr[:4*z], st[2].twi[:4*z]
	for sb := base; sb < base+span; sb += 8 * z {
		var v [16]float64 // v[k], v[8+k]: value k's real and imaginary parts
		for k, i := range rev[sb/z : sb/z+8] {
			v[k], v[8+k] = vr[i], vi[i]
		}
		or := re[sb : sb+8*z : sb+8*z]
		oi := im[sb : sb+8*z : sb+8*z]
		for j := 0; j < z; j++ {
			ar, ai, br, bi := butterfly(v[0], v[8], v[1], v[9], w1r[j], w1i[j])
			cr, ci, dr, di := butterfly(v[2], v[10], v[3], v[11], w1r[j], w1i[j])
			er, ei, fr, fi := butterfly(v[4], v[12], v[5], v[13], w1r[j], w1i[j])
			gr, gi, hr, hi := butterfly(v[6], v[14], v[7], v[15], w1r[j], w1i[j])

			ar, ai, cr, ci = butterfly(ar, ai, cr, ci, w2r[j], w2i[j])
			br, bi, dr, di = butterfly(br, bi, dr, di, w2r[z+j], w2i[z+j])
			er, ei, gr, gi = butterfly(er, ei, gr, gi, w2r[j], w2i[j])
			fr, fi, hr, hi = butterfly(fr, fi, hr, hi, w2r[z+j], w2i[z+j])

			or[j], oi[j], or[4*z+j], oi[4*z+j] = butterfly(ar, ai, er, ei, w3r[j], w3i[j])
			or[z+j], oi[z+j], or[5*z+j], oi[5*z+j] = butterfly(br, bi, fr, fi, w3r[z+j], w3i[z+j])
			or[2*z+j], oi[2*z+j], or[6*z+j], oi[6*z+j] = butterfly(cr, ci, gr, gi, w3r[2*z+j], w3i[2*z+j])
			or[3*z+j], oi[3*z+j], or[7*z+j], oi[7*z+j] = butterfly(dr, di, hr, hi, w3r[3*z+j], w3i[3*z+j])
		}
	}
}

// butterfly returns the radix-2 butterfly u ± w·x with FFTPlan's
// expansion of the complex product (t = w·x; u + t, u − t), the
// expressions stageScalar writes out inline.
func butterfly(ur, ui, xr, xi, wr, wi float64) (pr, pi, mr, mi float64) {
	tr := wr*xr - wi*xi
	ti := wr*xi + wi*xr
	return ur + tr, ui + ti, ur - tr, ui - ti
}

// stageSpan runs butterfly stage si over [base, base+span), whose
// size-long sub-blocks all share one group schedule: one kernel call
// per run of out's groups for the stage's stride, each walking every
// sub-block of the span.
func (bp *BatchPlan) stageSpan(re, im []float64, base, span, si int, out *BinPlan) {
	st := &bp.stages[si]
	h := st.size >> 1
	blocks := span / st.size
	runs, all := out.groupRuns(h)
	if all {
		stage(re, im, base, h, h, blocks, st.twr, st.twi)
		return
	}
	for k := 0; k < len(runs); k += 2 {
		lo, hi := runs[k], runs[k+1]
		stage(re, im, base+lo, h, hi-lo, blocks, st.twr[lo:], st.twi[lo:])
	}
}

// stagePairSpan runs butterfly stages si and si+1 (sizes s and 2s) over
// [base, base+span) in a single pass: one fused-pair kernel call per
// run of out's groups for stride s/2, each walking every 2s-long
// sub-block of the span. A pair group j is needed exactly when the
// first stage's group j is: the second stage's groups j and j + s/2
// fold onto it.
func (bp *BatchPlan) stagePairSpan(re, im []float64, base, span, si int, out *BinPlan) {
	st1 := &bp.stages[si]
	st2 := &bp.stages[si+1]
	h := st1.size >> 1
	blocks := span / st2.size
	runs, all := out.groupRuns(h)
	if all {
		stagePair(re, im, base, h, h, blocks, st1.twr, st1.twi, st2.twr, st2.twi)
		return
	}
	for k := 0; k < len(runs); k += 2 {
		lo, hi := runs[k], runs[k+1]
		stagePair(re, im, base+lo, h, hi-lo, blocks, st1.twr[lo:], st1.twi[lo:], st2.twr[lo:], st2.twi[lo:])
	}
}

// stage runs butterfly groups j in [0, count) of one radix-2 stage with
// half-size h in each of blocks sub-blocks 2h apart, the first at
// start: the planar halves a = x[sb+j], b = x[sb+h+j] with twiddle
// tw[j], sb = start + i·2h. The operand expressions mirror
// FFTPlan.butterflies exactly (t = w·b; b' = a − t; a' = a + t, with the
// complex products expanded in the same order), so results are
// bit-identical to the complex128 cascade. A whole stage is count = h
// at the sub-blocks' start; a pruned pass passes shorter runs at an
// offset, with the twiddles sliced from the run's first group.
func stage(re, im []float64, start, h, count, blocks int, twr, twi []float64) {
	if count <= 0 || blocks <= 0 {
		return
	}
	if simdAVX2 && count%groupAlign == 0 {
		// Bounds the vector body relies on (its last sub-block's last
		// element); the scalar body's slicing checks the same.
		last := start + (blocks-1)*2*h + h + count - 1
		_, _ = re[last], im[last]
		_, _ = twr[count-1], twi[count-1]
		// Vector lanes run the identical expressions on independent
		// elements — bit-exact with the scalar body (see simd.go).
		stageAVX2(re, im, start, h, count, blocks, twr, twi)
		return
	}
	stageScalar(re, im, start, h, count, blocks, twr, twi)
}

func stageScalar(re, im []float64, start, h, count, blocks int, twr, twi []float64) {
	twr = twr[:count]
	twi = twi[:count]
	for sb := start; blocks > 0; sb, blocks = sb+2*h, blocks-1 {
		ar := re[sb : sb+count : sb+count]
		ai := im[sb : sb+count : sb+count]
		br := re[sb+h : sb+h+count : sb+h+count]
		bi := im[sb+h : sb+h+count : sb+h+count]
		for j := range ar {
			wr, wi := twr[j], twi[j]
			xr, xi := br[j], bi[j]
			tr := wr*xr - wi*xi
			ti := wr*xi + wi*xr
			ur, ui := ar[j], ai[j]
			br[j] = ur - tr
			bi[j] = ui - ti
			ar[j] = ur + tr
			ai[j] = ui + ti
		}
	}
}

// stagePair runs groups j in [0, count) of two fused butterfly stages
// (sizes s = 2h and 2s) in each of blocks sub-blocks 4h apart, the
// first at start: each group of four elements {a, b, c, d} =
// {x[sb+j], x[sb+h+j], x[sb+2h+j], x[sb+3h+j]} flows through its two
// size-s butterflies (twiddle w1[j]) and then its two size-2s
// butterflies (twiddles w2[j] and w2[h+j]) entirely in registers before
// being stored. Every individual butterfly computes exactly the
// operands and operation order of stage — fusing only reorders
// independent butterflies, which cannot change any value — so the pass
// stays bit-identical to running the two stages separately.
func stagePair(re, im []float64, start, h, count, blocks int, w1r, w1i, w2r, w2i []float64) {
	if count <= 0 || blocks <= 0 {
		return
	}
	if simdAVX2 && count%groupAlign == 0 {
		last := start + (blocks-1)*4*h + 3*h + count - 1
		_, _ = re[last], im[last]
		_, _ = w1r[count-1], w1i[count-1]
		_, _ = w2r[h+count-1], w2i[h+count-1]
		// Same fused two-stage flow with the intermediates in vector
		// registers; bit-exact with the scalar body (see simd.go).
		stagePairAVX2(re, im, start, h, count, blocks, w1r, w1i, w2r, w2i)
		return
	}
	stagePairScalar(re, im, start, h, count, blocks, w1r, w1i, w2r, w2i)
}

func stagePairScalar(re, im []float64, start, h, count, blocks int, w1r, w1i, w2r, w2i []float64) {
	w1r = w1r[:count]
	w1i = w1i[:count]
	w2ar := w2r[:count:count]
	w2ai := w2i[:count:count]
	w2br := w2r[h : h+count : h+count]
	w2bi := w2i[h : h+count : h+count]
	for sb := start; blocks > 0; sb, blocks = sb+4*h, blocks-1 {
		a, b, c, d := sb, sb+h, sb+2*h, sb+3*h
		ar := re[a : a+count : a+count]
		ai := im[a : a+count : a+count]
		br := re[b : b+count : b+count]
		bi := im[b : b+count : b+count]
		cr := re[c : c+count : c+count]
		ci := im[c : c+count : c+count]
		dr := re[d : d+count : d+count]
		di := im[d : d+count : d+count]
		for j := range w1r {
			wr, wi := w1r[j], w1i[j]
			// Stage s, lower block: (a, b).
			xr, xi := br[j], bi[j]
			t1r := wr*xr - wi*xi
			t1i := wr*xi + wi*xr
			ur, ui := ar[j], ai[j]
			b1r := ur - t1r
			b1i := ui - t1i
			a1r := ur + t1r
			a1i := ui + t1i
			// Stage s, upper block: (c, d), same twiddle index.
			yr, yi := dr[j], di[j]
			t2r := wr*yr - wi*yi
			t2i := wr*yi + wi*yr
			vr, vi := cr[j], ci[j]
			d1r := vr - t2r
			d1i := vi - t2i
			c1r := vr + t2r
			c1i := vi + t2i
			// Stage 2s, twiddle j: (a1, c1).
			pr, pi := w2ar[j], w2ai[j]
			t3r := pr*c1r - pi*c1i
			t3i := pr*c1i + pi*c1r
			cr[j] = a1r - t3r
			ci[j] = a1i - t3i
			ar[j] = a1r + t3r
			ai[j] = a1i + t3i
			// Stage 2s, twiddle j + s/2: (b1, d1).
			qr, qi := w2br[j], w2bi[j]
			t4r := qr*d1r - qi*d1i
			t4i := qr*d1i + qi*d1r
			dr[j] = b1r - t4r
			di[j] = b1i - t4i
			br[j] = b1r + t4r
			bi[j] = b1i + t4i
		}
	}
}

// PowerSpectrumPlanar writes |re[i] + i·im[i]|² into dst using the same
// per-element expression as PowerSpectrum, so spectra computed through
// the planar batch path match the complex128 path bit for bit.
func PowerSpectrumPlanar(dst, re, im []float64) {
	dst = dst[:len(re)]
	im = im[:len(re)]
	for i, r := range re {
		m := im[i]
		dst[i] = r*r + m*m
	}
}

var (
	batchPlanMu    sync.Mutex
	batchPlanCache = map[[2]int]*BatchPlan{}
)

// PlanBatch returns a cached planar pruned-FFT plan for (size, nonzero),
// building it on first use. Like Plan, the cache never evicts: the
// receiver uses a handful of (padded size, symbol length) pairs per
// process.
func PlanBatch(n, nonzero int) *BatchPlan {
	key := [2]int{n, nonzero}
	batchPlanMu.Lock()
	defer batchPlanMu.Unlock()
	if bp, ok := batchPlanCache[key]; ok {
		return bp
	}
	bp := NewBatchPlan(n, nonzero)
	batchPlanCache[key] = bp
	return bp
}
