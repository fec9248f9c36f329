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
//   - The prefix bit-reversal permutation is stored as an explicit swap
//     list (ForwardPruned re-derives it from the full permutation on
//     every call).
//   - Twiddle factors are repacked per butterfly stage into compact
//     planar tables, so every stage reads its twiddles at unit stride
//     instead of striding through the full-size table.
//   - The zero-pad broadcast is fused into the first butterfly stage:
//     the stage reads the two prefix values of each block directly and
//     writes the stage output, eliminating a full write+read pass over
//     the buffer.
//
// Stages are additionally executed cache-blocked: every stage whose
// butterflies fit inside a block of blockElems elements runs
// block-by-block while the block is resident in L1, leaving only the
// last log2(n/block) stages as full-array passes. ForwardBatch can
// prune every pass, in-block and full-array, to the butterfly groups a
// BinPlan's bins need. Reordering butterfly execution never changes
// results — each butterfly's operands and operation order are identical
// to FFTPlan's radix-2 cascade, so a BatchPlan transform is
// bit-identical to ForwardPruned on the same input (the oracle the
// tests enforce).
//
// A BatchPlan is safe for concurrent use; transforms only read it.
type BatchPlan struct {
	n       int
	nonzero int
	z       int // zero-pad factor n/nonzero
	block   int // cache-block span in elements (power of two)
	swaps   []int32
	stages  []batchStage
}

// batchStage is one butterfly stage's compact twiddle table:
// twr[j] + i·twi[j] = e^{-2πij/size} for j in [0, size/2). The values
// are copied verbatim from the FFTPlan twiddle table (not recomputed
// from a different trig expression), keeping them bit-identical.
type batchStage struct {
	size     int
	twr, twi []float64
}

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

	// Prefix bit-reversal as an explicit swap list. For i < nonzero the
	// full-size permutation satisfies perm[i] = rev_m(i)·z with
	// m = nonzero, so rev_m(i) = perm[i]/z and every swap stays inside
	// the prefix (see FFTPlan.ForwardPruned).
	for i := 0; i < nonzero; i++ {
		if j := src.perm[i] / bp.z; i < j {
			bp.swaps = append(bp.swaps, int32(i), int32(j))
		}
	}

	// Compact per-stage twiddles for every stage the pruned cascade
	// runs: sizes firstSize, 2·firstSize, …, n.
	firstSize := 2 * bp.z
	if bp.z == 1 {
		firstSize = 2
	}
	for size := firstSize; size <= n; size <<= 1 {
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

	bp.block = blockElems
	if bp.block > n {
		bp.block = n
	}
	if bp.block < firstSize {
		bp.block = firstSize
	}
	return bp
}

// Size returns the transform size.
func (bp *BatchPlan) Size() int { return bp.n }

// Nonzero returns the planned nonzero prefix length.
func (bp *BatchPlan) Nonzero() int { return bp.nonzero }

// Forward computes the in-place pruned forward DFT of the planar signal
// (re, im), both of length Size(). Only the first Nonzero() entries are
// read as input; the tail is treated as zero regardless of its contents
// and is fully overwritten. The result is bit-identical to
// FFTPlan.ForwardPruned on the equivalent complex128 buffer.
func (bp *BatchPlan) Forward(re, im []float64) {
	if len(re) != bp.n || len(im) != bp.n {
		panic(fmt.Sprintf("dsp: batch FFT input lengths %d/%d do not match plan size %d", len(re), len(im), bp.n))
	}
	bp.transform(re[:bp.n], im[:bp.n], nil)
}

// ForwardBatch computes batch consecutive pruned transforms over the
// planar buffers re and im, each transform occupying one Size()-long
// stride. len(re) and len(im) must be at least batch·Size().
//
// out, when non-nil, names the only output bins the caller reads: every
// butterfly pass then runs only the groups whose outputs reach a bin in
// out (BinPlan's group runs for the pass's stride), and every bin
// outside out is left unspecified. After the stage of size s, offset t
// of each s-long sub-block holds bin t of one decimated subsequence,
// and final bin k reads offset k mod s of every sub-block; so a pass
// with stride h is needed only at groups j ≡ k (mod h) for some k in
// out. A needed group reads only outputs of needed groups of the pass
// before (j in out mod h implies j mod h/2 in out mod h/2), so bins
// inside out are bit-identical to the unplanned transform. Groups run
// only to widen a run to the vector width may read stale values, but
// their outputs reach no bin in out.
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
	for b := 0; b < batch; b++ {
		bp.transform(re[b*n:(b+1)*n], im[b*n:(b+1)*n], out)
	}
}

func (bp *BatchPlan) transform(re, im []float64, out *BinPlan) {
	// Prefix bit reversal.
	sw := bp.swaps
	for k := 0; k+1 < len(sw); k += 2 {
		i, j := sw[k], sw[k+1]
		re[i], re[j] = re[j], re[i]
		im[i], im[j] = im[j], im[i]
	}
	if bp.nonzero == 1 {
		// Single nonzero input: the DFT is a constant broadcast.
		vr, vi := re[0], im[0]
		for i := range re {
			re[i] = vr
			im[i] = vi
		}
		return
	}

	// Cache-blocked stages. Blocks run back to front so the fused
	// broadcast stage never overwrites prefix values a lower block has
	// yet to read (block b's prefix reads all land strictly below its
	// own span for b >= 1, and block 0 handles its self-overlap by
	// walking its chunks backwards). Within a block — and again for the
	// full-array tail — consecutive stages run pairwise fused: one pass
	// over the data performs both stages' butterflies with the
	// intermediate values held in registers, halving loads and stores.
	// The fused first stage writes every element and runs whole; every
	// later pass runs only out's groups for its stride.
	nBlocks := bp.n / bp.block
	inBlock := 0
	for inBlock < len(bp.stages) && bp.stages[inBlock].size <= bp.block {
		inBlock++
	}
	for b := nBlocks - 1; b >= 0; b-- {
		base := b * bp.block
		si := 0
		if bp.z > 1 {
			bp.fusedFirstStage(re, im, base)
			si = 1
		}
		bp.passes(re, im, base, bp.block, si, inBlock, out)
	}
	// Remaining stages span more than one block: full-array passes.
	bp.passes(re, im, 0, bp.n, inBlock, len(bp.stages), out)
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

// fusedFirstStage runs the first butterfly stage (size 2z) of the pruned
// cascade over [base, base+block), reading each 2z-chunk's pair of
// prefix values directly instead of materializing the zero-pad
// broadcast. Chunks walk backwards so the chunk at offset 0 — whose
// output overwrites the prefix entries it reads — loads them into
// locals first.
func (bp *BatchPlan) fusedFirstStage(re, im []float64, base int) {
	z := bp.z
	st := &bp.stages[0]
	twr, twi := st.twr[:z], st.twi[:z]
	if simdAVX2 && z >= 4 {
		// Whole-block kernel: the backward chunk walk, per-chunk prefix
		// broadcasts and stage-output stores run in one asm call — at
		// small z a per-chunk call spent more time in call overhead
		// than in butterflies.
		firstStageBlockAVX2(re, im, base, bp.block, twr, twi)
		return
	}
	for start := base + bp.block - 2*z; start >= base; start -= 2 * z {
		pv := start / z
		v0r, v0i := re[pv], im[pv]
		v1r, v1i := re[pv+1], im[pv+1]
		or := re[start : start+2*z]
		oi := im[start : start+2*z]
		for j := 0; j < z; j++ {
			wr, wi := twr[j], twi[j]
			tr := wr*v1r - wi*v1i
			ti := wr*v1i + wi*v1r
			or[j] = v0r + tr
			oi[j] = v0i + ti
			or[z+j] = v0r - tr
			oi[z+j] = v0i - ti
		}
	}
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
